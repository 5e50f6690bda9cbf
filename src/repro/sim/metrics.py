"""Per-round measurement collection for construction runs."""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.convergence import OverlayQuality, measure
from repro.core.tree import Overlay
from repro.obs.probe import Probe


@dataclasses.dataclass(slots=True)
class RoundRecord:
    """State of the overlay at the end of one simulation round.

    One is made every round, so it is a plain slotted record rather than
    a frozen one (whose ``__init__`` pays an ``object.__setattr__`` per
    field); nothing writes to it after :meth:`MetricsCollector.record`.
    """

    round: int
    quality: OverlayQuality
    cumulative_attaches: int
    cumulative_detaches: int
    departures: int
    rejoins: int


class RecoveryTracker:
    """When a run came back after each disruption (``docs/RESILIENCE.md``).

    ``disruptions`` is the owner's list of disruption rounds, appended in
    order as they happen (the fault injector's ``fault_rounds``, a soak's
    timeline acts and faults); the disruptions of round ``t`` are listed
    before :meth:`observe` takes round ``t``'s reading.  Each observed
    round brings one reading, ``whole``: is the run whole again?  The
    one rule: a disruption in round ``d`` recovers in the first observed
    whole round ``>= d``.  Which rounds are observed is the owner's
    choice — a soak does not observe the rounds it was disrupted in, so
    its recoveries come strictly after.

    A whole reading recovers every outstanding disruption at once, so
    the recovery rounds are kept for a prefix of ``disruptions`` and a
    reading costs O(1) while none is outstanding.
    """

    def __init__(
        self, disruptions: List[int], probe: Optional[Probe] = None
    ) -> None:
        self.disruptions = disruptions
        #: Emits one :class:`~repro.obs.events.Recovery` per disruption
        #: as it recovers (``None`` or a disabled probe: emit nothing).
        self.probe = probe if probe is not None and probe.enabled else None
        #: The recovery round of each recovered disruption, in order.
        self.recovered: List[int] = []

    def observe(self, now: int, whole: bool) -> None:
        """Take round ``now``'s reading."""
        if whole and len(self.recovered) < len(self.disruptions):
            for disruption in self.disruptions[len(self.recovered):]:
                self.recovered.append(now)
                if self.probe is not None:
                    self.probe.recovery(disruption, now - disruption)

    def series(self) -> List[Optional[int]]:
        """Rounds to recover per disruption, in order: ``0`` when the
        disruption did not even dent the reading, ``None`` when the run
        never came back from it."""
        series: List[Optional[int]] = [
            recovered - disruption
            for disruption, recovered in zip(self.disruptions, self.recovered)
        ]
        series.extend([None] * (len(self.disruptions) - len(self.recovered)))
        return series

    def time_to_recover(self) -> Optional[int]:
        """The worst entry of :meth:`series`; ``None`` when nothing
        disrupted the run or it never came back from some disruption
        (``converged`` tells the two apart)."""
        series = self.series()
        if not series or None in series:
            return None
        return max(series)  # type: ignore[type-var]


class MetricsCollector:
    """Accumulates one :class:`RoundRecord` per round of a run.

    Under a fault plan, :meth:`track` points a :class:`RecoveryTracker`
    at the injector's fault rounds; every record is then its reading,
    whole meaning converged, and recoveries emit
    :class:`~repro.obs.events.Recovery` events through the overlay's
    probe.
    """

    def __init__(self, overlay: Overlay) -> None:
        self.overlay = overlay
        self.records: List[RoundRecord] = []
        self.recovery: Optional[RecoveryTracker] = None

    def track(self, fault_rounds: List[int]) -> None:
        """Track recovery from the faults of ``fault_rounds``."""
        self.recovery = RecoveryTracker(fault_rounds, self.overlay.probe)

    def record(self, now: int, departures: int = 0, rejoins: int = 0) -> RoundRecord:
        """Measure the overlay and append a record for round ``now``.

        :func:`~repro.core.convergence.measure` reads the chain index's
        quality counters in O(1); the runner's convergence check reads
        this record.
        """
        overlay = self.overlay
        record = RoundRecord(
            now,
            measure(overlay),
            overlay.attach_count,
            overlay.detach_count,
            departures,
            rejoins,
        )
        self.records.append(record)
        if self.recovery is not None:
            self.recovery.observe(now, record.quality.converged)
        return record

    # ------------------------------------------------------------------
    # convenience series extraction
    # ------------------------------------------------------------------

    def satisfied_series(self) -> List[float]:
        """Satisfied fraction per round."""
        return [r.quality.satisfied_fraction for r in self.records]

    def first_converged_round(self) -> Optional[int]:
        """First round at which all online consumers were satisfied."""
        for record in self.records:
            if record.quality.converged:
                return record.round
        return None

    def availability(self) -> float:
        """Fraction of satisfied node-rounds over the whole run:
        ``sum(satisfied) / sum(online)`` across all measured rounds (1.0
        for an empty run — nobody was ever unsatisfied)."""
        online = sum(r.quality.online for r in self.records)
        if not online:
            return 1.0
        satisfied = sum(r.quality.satisfied for r in self.records)
        return satisfied / online
