"""Per-round measurement collection for construction runs."""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.convergence import OverlayQuality, measure
from repro.core.tree import Overlay


@dataclasses.dataclass(frozen=True)
class RoundRecord:
    """State of the overlay at the end of one simulation round."""

    round: int
    quality: OverlayQuality
    cumulative_attaches: int
    cumulative_detaches: int
    departures: int
    rejoins: int


class MetricsCollector:
    """Accumulates one :class:`RoundRecord` per round of a run.

    Besides the per-round quality series, the collector derives the
    recovery metrics of the fault regime (``docs/RESILIENCE.md``): the
    fault injector reports each injection through :meth:`note_fault`, and
    :meth:`record` detects the subsequent return to convergence —
    emitting one :class:`~repro.obs.events.Recovery` event per
    outstanding fault the moment the overlay is whole again.
    """

    def __init__(self, overlay: Overlay) -> None:
        self.overlay = overlay
        self.records: List[RoundRecord] = []
        #: Rounds in which a fault plan injected something (in order).
        self.fault_rounds: List[int] = []
        #: Fault rounds not yet followed by a converged measurement.
        self._unrecovered: List[int] = []

    def note_fault(self, now: int) -> None:
        """A fault fired in round ``now`` (called by the fault injector
        *before* this round's measurement)."""
        self.fault_rounds.append(now)
        self._unrecovered.append(now)

    def record(self, now: int, departures: int = 0, rejoins: int = 0) -> RoundRecord:
        """Measure the overlay and append a record for round ``now``.

        :func:`~repro.core.convergence.measure` reads the chain index's
        quality counters in O(1); the runner's convergence check reads
        this record.
        """
        record = RoundRecord(
            round=now,
            quality=measure(self.overlay),
            cumulative_attaches=self.overlay.attach_count,
            cumulative_detaches=self.overlay.detach_count,
            departures=departures,
            rejoins=rejoins,
        )
        self.records.append(record)
        if self._unrecovered and record.quality.converged:
            for fault_round in self._unrecovered:
                self.overlay.probe.recovery(fault_round, now - fault_round)
            self._unrecovered.clear()
        return record

    # ------------------------------------------------------------------
    # convenience series extraction
    # ------------------------------------------------------------------

    def satisfied_series(self) -> List[float]:
        """Satisfied fraction per round."""
        return [r.quality.satisfied_fraction for r in self.records]

    def fragments_series(self) -> List[int]:
        """Number of disjoint fragments per round (coalescence progress)."""
        return [r.quality.fragments for r in self.records]

    def first_converged_round(self) -> Optional[int]:
        """First round at which all online consumers were satisfied."""
        for record in self.records:
            if record.quality.converged:
                return record.round
        return None

    # ------------------------------------------------------------------
    # recovery metrics (fault regime)
    # ------------------------------------------------------------------

    def recovery_series(self) -> List[Optional[int]]:
        """Rounds-to-reconverge per fault event, in injection order.

        For a fault injected in round ``f`` this is ``r - f`` where ``r``
        is the first measured round ``>= f`` with a converged overlay
        (``0`` when the fault didn't even dent convergence), or ``None``
        if the overlay never re-converged within the run.
        """
        series: List[Optional[int]] = []
        for fault_round in self.fault_rounds:
            recovered: Optional[int] = None
            for record in self.records:
                if record.round >= fault_round and record.quality.converged:
                    recovered = record.round - fault_round
                    break
            series.append(recovered)
        return series

    def time_to_recover(self) -> Optional[int]:
        """Worst rounds-to-reconverge over all fault events.

        ``None`` when no fault fired, and ``None`` when any fault was
        never recovered from within the run (an infinite recovery time is
        reported as absent, with ``converged`` telling the two cases
        apart).
        """
        series = self.recovery_series()
        if not series or any(r is None for r in series):
            return None
        return max(series)

    def availability(self) -> float:
        """Fraction of satisfied node-rounds over the whole run:
        ``sum(satisfied) / sum(online)`` across all measured rounds (1.0
        for an empty run — nobody was ever unsatisfied)."""
        online = sum(r.quality.online for r in self.records)
        if not online:
            return 1.0
        satisfied = sum(r.quality.satisfied for r in self.records)
        return satisfied / online
