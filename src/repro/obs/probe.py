"""Probes: the run-observability tap of the protocol stack.

Emission points throughout the stack call the hook methods below
(``probe.attach(...)``, ``probe.oracle_miss(...)``, ...), each behind a
check of :attr:`Probe.enabled`.  The default :class:`NullProbe` is
disabled, so an uninstrumented run pays one attribute read per event
and calls no hook at all — no event objects are constructed, no RNG is
touched, no simulation outcome can change.  A :class:`RecordingProbe`
turns the same hooks into typed :mod:`repro.obs.events` plus live
aggregates in a :class:`~repro.obs.counters.MetricsRegistry`.

Probes receive node *ids*, not node objects, so they stay decoupled
from :mod:`repro.core` (no import cycle, traces are plain data).

Invariant: a probe must never influence the run it observes.  The
determinism guard in ``tests/test_obs.py`` pins this — a seeded run
with a :class:`RecordingProbe` must produce a ``SimulationResult``
identical to the same run with a :class:`NullProbe`.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.counters import MetricsRegistry
from repro.obs.events import (
    AttachAccept,
    AttachReject,
    Backoff,
    ChurnLeave,
    ChurnRejoin,
    Detach,
    Event,
    FaultInjected,
    FeedHealth,
    MaintenanceTrigger,
    MessageDrop,
    MessageSend,
    MultipathDelivery,
    MultipathOverlap,
    OracleMiss,
    OracleQuery,
    Recovery,
    Referral,
    SoakPhase,
    SourceContact,
    StaleReferral,
    Timeout,
)


class Probe:
    """The probe interface: one hook per protocol event, all no-ops here.

    Subclass and override the hooks you care about.  Every emission
    site calls a hook only when :attr:`enabled` is true (round loops
    read it once per round or per run), so a disabled probe receives no
    calls at all.
    """

    #: Whether this probe records anything; when false, no emission site
    #: calls a hook or computes its arguments.
    enabled: bool = True

    # --- round framing ----------------------------------------------------

    def begin_round(self, now: int) -> None:
        """A new simulation round started; subsequent events belong to it."""

    def end_round(self, now: int, wall_clock: float) -> None:
        """The round finished after ``wall_clock`` seconds."""

    # --- oracle -----------------------------------------------------------

    def oracle_query(
        self, node: int, oracle: str, response_size: int, partner: int
    ) -> None:
        """An oracle answered ``node``'s query with ``partner``."""

    def oracle_miss(self, node: int, oracle: str) -> None:
        """An oracle found no suitable partner for ``node``."""

    # --- construction moves ----------------------------------------------

    def referral(self, node: int, target: int, origin: str) -> None:
        """``node`` was referred to ``target`` (see :class:`Referral`)."""

    def attach(self, child: int, parent: int) -> None:
        """``child <- parent`` was created."""

    def attach_reject(self, child: int, parent: int, reason: str) -> None:
        """A ``try child <- parent`` was checked and refused."""

    def detach(self, child: int, parent: int, reason: str) -> None:
        """``child`` was severed from ``parent``."""

    def maintenance_trigger(
        self, node: int, rule: str, delay: int, latency: int
    ) -> None:
        """A maintenance rule fired at ``node``."""

    def timeout(self, node: int) -> None:
        """``node`` timed out parentless and contacted the source."""

    def source_contact(self, node: int, outcome: str) -> None:
        """``node`` contacted the source directly (see :class:`SourceContact`)."""

    def stale_referral(self, node: int, target: int, reason: str) -> None:
        """``node``'s referral to ``target`` proved stale."""

    def backoff(self, node: int, failures: int, delay: int) -> None:
        """``node`` backed off for ``delay`` rounds after ``failures``
        consecutive failed source contacts."""

    # --- membership and substrate ----------------------------------------

    def churn_leave(self, node: int, orphans: int) -> None:
        """``node`` departed, orphaning ``orphans`` children."""

    def churn_rejoin(self, node: int) -> None:
        """``node`` rejoined."""

    def message_send(self, sender: Any, recipient: Any, kind: str) -> None:
        """A message entered the simulated network."""

    def message_drop(
        self, sender: Any, recipient: Any, kind: str, reason: str
    ) -> None:
        """A message was dropped (``"loss"`` or ``"unroutable"``)."""

    # --- faults and recovery ----------------------------------------------

    def fault_injected(self, fault: str, affected: int) -> None:
        """A fault plan fired (see :class:`FaultInjected`)."""

    def recovery(self, fault_round: int, rounds: int) -> None:
        """The overlay re-converged ``rounds`` rounds after the fault of
        round ``fault_round``."""

    def multipath_overlap(
        self, node: int, path_kept: int, path_detached: int, shared: int
    ) -> None:
        """Multipath maintenance severed an overlapping chain (see
        :class:`MultipathOverlap`)."""

    def multipath_delivery(
        self, delivered: int, online: int, paths: int
    ) -> None:
        """Per-round multipath delivery sample (see
        :class:`MultipathDelivery`)."""

    # --- service soak ------------------------------------------------------

    def soak_phase(self, phase: str, feed: str, affected: int) -> None:
        """A service-soak timeline act began (see :class:`SoakPhase`)."""

    def feed_health(
        self, feed: str, online: int, rooted: int, satisfied: int,
        deliveries: int,
    ) -> None:
        """Per-feed soak health sample (see :class:`FeedHealth`)."""


class NullProbe(Probe):
    """The zero-cost default: disabled, so no emission site calls it."""

    enabled = False


#: Shared do-nothing probe; safe because a NullProbe has no state.
NULL_PROBE = NullProbe()


class RecordingProbe(Probe):
    """Accumulates every event and keeps live aggregates.

    * :attr:`events` — the full typed event list, in emission order;
    * :attr:`registry` — per-kind event counters plus the histograms the
      paper's measurement needs: ``oracle.response_size`` (how much of
      each oracle answer is wasted), ``referral.chain_length`` (how many
      referral hops an attach took) and ``round.wall_clock_s``.
    """

    enabled = True

    def __init__(self, registry: MetricsRegistry = None) -> None:
        self.events: List[Event] = []
        self.registry = registry if registry is not None else MetricsRegistry()
        self._round = 0
        #: node id -> referral hops followed since it last went parentless.
        self._chains: Dict[int, int] = {}
        self._response_sizes = self.registry.histogram("oracle.response_size")
        self._chain_lengths = self.registry.histogram("referral.chain_length")
        self._round_clock = self.registry.histogram(
            "round.wall_clock_s",
            bounds=(
                1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
                1e-2, 3e-2, 1e-1, 3e-1, 1.0, 10.0,
            ),
            # Wall time differs between bit-identical runs; tagging it
            # keeps comparable snapshots (and the parallel/serial
            # equivalence guard) free of machine noise.
            nondeterministic=True,
        )
        self._recovery_rounds = self.registry.histogram("recovery.rounds")

    def _record(self, event: Event) -> None:
        self.events.append(event)
        self.registry.counter(f"events.{event.kind}").inc()

    # --- round framing ----------------------------------------------------

    def begin_round(self, now: int) -> None:
        self._round = now
        self.registry.gauge("round.current").set(now)

    def end_round(self, now: int, wall_clock: float) -> None:
        self._round_clock.observe(wall_clock)

    # --- oracle -----------------------------------------------------------

    def oracle_query(
        self, node: int, oracle: str, response_size: int, partner: int
    ) -> None:
        self._record(
            OracleQuery(
                round=self._round,
                node=node,
                oracle=oracle,
                response_size=response_size,
                partner=partner,
            )
        )
        self._response_sizes.observe(response_size)

    def oracle_miss(self, node: int, oracle: str) -> None:
        self._record(OracleMiss(round=self._round, node=node, oracle=oracle))

    # --- construction moves ----------------------------------------------

    def referral(self, node: int, target: int, origin: str) -> None:
        self._record(
            Referral(round=self._round, node=node, target=target, origin=origin)
        )
        self._chains[node] = self._chains.get(node, 0) + 1

    def attach(self, child: int, parent: int) -> None:
        self._record(AttachAccept(round=self._round, child=child, parent=parent))
        chain = self._chains.pop(child, None)
        if chain is not None:
            self._chain_lengths.observe(chain)

    def attach_reject(self, child: int, parent: int, reason: str) -> None:
        self._record(
            AttachReject(
                round=self._round, child=child, parent=parent, reason=reason
            )
        )

    def detach(self, child: int, parent: int, reason: str) -> None:
        self._record(
            Detach(round=self._round, child=child, parent=parent, reason=reason)
        )

    def maintenance_trigger(
        self, node: int, rule: str, delay: int, latency: int
    ) -> None:
        self._record(
            MaintenanceTrigger(
                round=self._round,
                node=node,
                rule=rule,
                delay=delay,
                latency=latency,
            )
        )

    def timeout(self, node: int) -> None:
        self._record(Timeout(round=self._round, node=node))

    def source_contact(self, node: int, outcome: str) -> None:
        self._record(
            SourceContact(round=self._round, node=node, outcome=outcome)
        )
        self.registry.counter(f"source.contact_{outcome}").inc()

    def stale_referral(self, node: int, target: int, reason: str) -> None:
        self._record(
            StaleReferral(
                round=self._round, node=node, target=target, reason=reason
            )
        )

    def backoff(self, node: int, failures: int, delay: int) -> None:
        self._record(
            Backoff(round=self._round, node=node, failures=failures, delay=delay)
        )

    # --- membership and substrate ----------------------------------------

    def churn_leave(self, node: int, orphans: int) -> None:
        self._record(
            ChurnLeave(round=self._round, node=node, orphans=orphans)
        )
        self._chains.pop(node, None)

    def churn_rejoin(self, node: int) -> None:
        self._record(ChurnRejoin(round=self._round, node=node))
        self._chains.pop(node, None)

    def message_send(self, sender: Any, recipient: Any, kind: str) -> None:
        self._record(
            MessageSend(
                round=self._round,
                sender=sender,
                recipient=recipient,
                message_kind=kind,
            )
        )

    def message_drop(
        self, sender: Any, recipient: Any, kind: str, reason: str
    ) -> None:
        self._record(
            MessageDrop(
                round=self._round,
                sender=sender,
                recipient=recipient,
                message_kind=kind,
                reason=reason,
            )
        )
        # Mirrors MessageNetwork.dropped_loss / dropped_unroutable, so the
        # drop totals survive into exported traces and `repro obs summarize`.
        self.registry.counter(f"network.dropped_{reason}").inc()

    # --- faults and recovery ----------------------------------------------

    def fault_injected(self, fault: str, affected: int) -> None:
        self._record(
            FaultInjected(round=self._round, fault=fault, affected=affected)
        )
        self.registry.counter(f"faults.{fault}").inc()

    def recovery(self, fault_round: int, rounds: int) -> None:
        self._record(
            Recovery(round=self._round, fault_round=fault_round, rounds=rounds)
        )
        self._recovery_rounds.observe(rounds)

    def multipath_overlap(
        self, node: int, path_kept: int, path_detached: int, shared: int
    ) -> None:
        self._record(
            MultipathOverlap(
                round=self._round,
                node=node,
                path_kept=path_kept,
                path_detached=path_detached,
                shared=shared,
            )
        )
        self.registry.counter("multipath.overlap_repairs").inc()

    def multipath_delivery(
        self, delivered: int, online: int, paths: int
    ) -> None:
        self._record(
            MultipathDelivery(
                round=self._round,
                delivered=delivered,
                online=online,
                paths=paths,
            )
        )

    # --- service soak ------------------------------------------------------

    def soak_phase(self, phase: str, feed: str, affected: int) -> None:
        self._record(
            SoakPhase(
                round=self._round, phase=phase, feed=feed, affected=affected
            )
        )
        self.registry.counter(f"soak.phase_{phase}").inc()

    def feed_health(
        self, feed: str, online: int, rooted: int, satisfied: int,
        deliveries: int,
    ) -> None:
        self._record(
            FeedHealth(
                round=self._round,
                feed=feed,
                online=online,
                rooted=rooted,
                satisfied=satisfied,
                deliveries=deliveries,
            )
        )

    # --- convenience ------------------------------------------------------

    def events_of(self, kind: str) -> List[Event]:
        """All recorded events of the given wire kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def event_counts(self) -> Dict[str, int]:
        """``{kind: count}`` over all recorded events, sorted by kind."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))
