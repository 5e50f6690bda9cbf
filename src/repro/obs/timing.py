"""Per-round and per-phase wall-clock timing.

One simulation round decomposes into phases — ``churn`` (membership
step), ``oracle`` (directory/gossip upkeep), ``faults`` (fault-plan
injection, present only when a plan is installed), ``step``
(construction steps of parentless nodes), ``maintain`` (maintenance
rule at the parented nodes that are not settled; its call count is the
number of times the rule ran, not the number of parented nodes) and
``measure`` (quality snapshot + trace capture).
:class:`PhaseTimings` accumulates wall-clock per phase so "where does
the time go" is answerable per run, which is the precondition for every
perf PR the ROADMAP asks for.

Timing never feeds back into the simulation: it consumes no RNG and
influences no decision, and the accumulated seconds are surfaced on
:class:`repro.sim.runner.SimulationResult` as a comparison-exempt field
so wall-clock noise can never make two otherwise-identical results
unequal.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Canonical phase order for reports (unknown phases sort after these).
PHASE_ORDER: Sequence[str] = (
    "churn",
    "oracle",
    "faults",
    "step",
    "maintain",
    "measure",
)


class PhaseTimings:
    """Accumulated wall-clock seconds and call counts per phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Record ``calls`` spans of ``phase`` totalling ``seconds``.

        The round loops read the clock once at each phase boundary and
        pass the difference here; a sweep sums its step and maintain
        spans locally and adds each total once.
        """
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready ``{phase: {"seconds": s, "calls": n}}``, report order."""
        return {
            phase: {"seconds": self.seconds[phase], "calls": self.calls[phase]}
            for phase in self._ordered_phases()
        }

    def rows(self) -> List[List[object]]:
        """Table rows ``[phase, seconds, calls, share]`` for reporting."""
        total = self.total_seconds
        return [
            [
                phase,
                self.seconds[phase],
                self.calls[phase],
                (self.seconds[phase] / total) if total > 0 else 0.0,
            ]
            for phase in self._ordered_phases()
        ]

    def _ordered_phases(self) -> List[str]:
        known = [p for p in PHASE_ORDER if p in self.seconds]
        extra = sorted(p for p in self.seconds if p not in PHASE_ORDER)
        return known + extra
