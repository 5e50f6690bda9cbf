"""Live fault conditions shared between the injector and the protocol.

A :class:`FaultState` is the single mutable object through which active
fault windows are visible to the rest of the stack — one per run, shared
by every overlay the run drives: the
:class:`~repro.faults.injector.FaultInjector` writes it once per round,
the construction protocol consults :meth:`FaultState.source_available`
before a source contact, and the
:class:`~repro.faults.oracle.FaultGatedOracle` consults the oracle-side
conditions on every query.  With no plan installed the protocol's
``faults`` slot is ``None`` and none of these checks run at all.
"""

from __future__ import annotations

from typing import Dict


class FaultState:
    """Point-in-time fault conditions, keyed off the current round.

    Windows are stored as exclusive end rounds (``*_until``): a window
    injected at round ``r`` with duration ``d`` is active for rounds
    ``r .. r+d-1``.  ``now`` is advanced by the injector at the start of
    each round's fault phase.
    """

    def __init__(self) -> None:
        self.now = 0
        #: Source rejects direct contacts while ``now < source_down_until``.
        self.source_down_until = 0
        #: Oracle answers nothing while ``now < oracle_down_until``.
        self.oracle_down_until = 0
        #: Oracle serves a ``staleness``-rounds-old view while
        #: ``now < stale_until``.
        self.stale_until = 0
        self.staleness = 0
        #: Oracle only samples same-side partners while
        #: ``now < partition_until``.
        self.partition_until = 0
        #: consumer name -> partition side (assigned at injection
        #: time); names are stable across a run's overlays, so one map
        #: serves every overlay.
        self.side_of: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def source_available(self) -> bool:
        """Whether the source currently accepts direct contacts."""
        return self.now >= self.source_down_until

    def oracle_available(self) -> bool:
        """Whether the oracle currently answers queries at all."""
        return self.now >= self.oracle_down_until

    def stale_view_active(self) -> bool:
        """Whether the oracle is currently serving a stale snapshot."""
        return self.now < self.stale_until

    def partition_active(self) -> bool:
        """Whether the oracle view is currently partitioned."""
        return self.now < self.partition_until

    def same_side(self, a: str, b: str) -> bool:
        """Whether two consumers (by name) are on the same partition side."""
        return self.side_of.get(a, 0) == self.side_of.get(b, 0)

    def any_active(self) -> bool:
        """Whether any fault condition is currently in force."""
        return (
            not self.source_available()
            or not self.oracle_available()
            or self.stale_view_active()
            or self.partition_active()
        )
