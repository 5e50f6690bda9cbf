"""Membership dynamics (§5.3).

The paper's churn model: initially all peers are online; in each time
step, each online peer leaves with probability 0.01 and each offline peer
re-joins with probability 0.2.  A departing peer is severed from its
parent and its children become fragment roots (they keep their own
subtrees); a re-joining peer starts parentless with fresh protocol state.

The stationary offline fraction of this two-state chain is
``p_leave / (p_leave + p_rejoin)`` — about 4.8 % with the paper's numbers,
a moderate but persistent level of disruption.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List

from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.core.tree import Overlay


@dataclasses.dataclass(frozen=True)
class ChurnConfig:
    """Per-round leave/rejoin probabilities (defaults: paper §5.3)."""

    leave_probability: float = 0.01
    rejoin_probability: float = 0.2
    #: First round at which churn applies (0 = from the very start, the
    #: paper's setting: construction happens *under* churn).
    start_round: int = 0

    def __post_init__(self) -> None:
        for name in ("leave_probability", "rejoin_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.start_round < 0:
            raise ConfigurationError("start_round must be >= 0")

    @property
    def stationary_offline_fraction(self) -> float:
        """Long-run fraction of peers offline under this churn process."""
        total = self.leave_probability + self.rejoin_probability
        if total == 0.0:
            return 0.0
        return self.leave_probability / total


@dataclasses.dataclass
class ChurnEvents:
    """What happened during one churn step."""

    left: List[Node]
    rejoined: List[Node]
    orphaned: List[Node]


class ChurnProcess:
    """Applies the two-state churn chain to an overlay, one step per round."""

    def __init__(
        self, overlay: Overlay, config: ChurnConfig, rng: random.Random
    ) -> None:
        self.overlay = overlay
        self.config = config
        self.rng = rng
        self.total_departures = 0
        self.total_rejoins = 0

    def step(self, now: int) -> ChurnEvents:
        """Run one churn step; returns the nodes affected this round.

        The source never churns (§2.1.2 — the feed server is a fixed,
        if resource-constrained, piece of infrastructure).
        """
        events = ChurnEvents(left=[], rejoined=[], orphaned=[])
        if now < self.config.start_round:
            return events
        # Decide on an explicit snapshot copy so a peer cannot leave and
        # rejoin (or vice versa) within the same step, and so the
        # go_offline/go_online roster mutations below cannot skip or
        # double-visit anyone.  (`Overlay.consumers` happens to return a
        # copy today, but this loop's correctness must not hinge on that
        # implementation detail — pinned by tests/test_churn.py.)
        consumers = list(self.overlay.consumers)
        overlay = self.overlay
        draw = self.rng.random
        leave_probability = self.config.leave_probability
        rejoin_probability = self.config.rejoin_probability
        for node in consumers:
            if node.online:
                if draw() < leave_probability:
                    orphans = overlay.go_offline(node)
                    events.orphaned.extend(orphans)
                    events.left.append(node)
                    self.total_departures += 1
                    overlay.probe.churn_leave(node.node_id, len(orphans))
            elif draw() < rejoin_probability:
                overlay.go_online(node)
                events.rejoined.append(node)
                self.total_rejoins += 1
                overlay.probe.churn_rejoin(node.node_id)
        return events
