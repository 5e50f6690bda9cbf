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
from typing import List, Tuple

from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.faults.injector import Members


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


class ChurnProcess:
    """Applies the two-state churn chain to a run's
    :class:`~repro.faults.injector.Members`, one step per round: a
    churned peer leaves and rejoins every overlay it is in at once."""

    def __init__(
        self, members: Members, config: ChurnConfig, rng: random.Random
    ) -> None:
        self.members = members
        self.config = config
        self.rng = rng
        self.total_departures = 0
        self.total_rejoins = 0
        # A member's node in the first overlay speaks for it (Members
        # moves it in every overlay at once), so a step reads one flag
        # per member.  The chain runs over the starting population.
        lead = members.tables[0]
        self._lead: List[Node] = [lead[name] for name in members.names]

    def step(self, now: int) -> Tuple[int, int]:
        """Run one churn step; returns ``(departures, rejoins)``.

        The source never churns (§2.1.2 — the feed server is a fixed,
        if resource-constrained, piece of infrastructure).
        """
        if now < self.config.start_round:
            return 0, 0
        # ``_lead`` is a snapshot no membership change touches: nobody
        # flips twice in one step or is skipped (tests/test_churn.py).
        members = self.members
        probe = members.overlays[0].probe
        observed = probe.enabled
        draw = self.rng.random
        leave_probability = self.config.leave_probability
        rejoin_probability = self.config.rejoin_probability
        departures = rejoins = 0
        for node in self._lead:
            if node.online:
                if draw() < leave_probability:
                    orphans = len(node.children)
                    members.take_down(node.name, graceful=True, reason="churn")
                    departures += 1
                    if observed:
                        probe.churn_leave(node.node_id, orphans)
            elif draw() < rejoin_probability:
                members.bring_up(node.name)
                rejoins += 1
                if observed:
                    probe.churn_rejoin(node.node_id)
        self.total_departures += departures
        self.total_rejoins += rejoins
        return departures, rejoins
