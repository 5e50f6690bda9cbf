"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` and one :class:`~repro.faults.state.FaultState`
belong to one run, whatever the run drives: the single overlay of a
:class:`~repro.sim.runner.Simulation`, the k path overlays of a
:class:`~repro.multipath.delivery.MultipathSystem`, or every feed overlay
of a :class:`~repro.multifeed.soak.ServiceSoak`.  The three differ only
in who a fault strikes, and a :class:`Members` view says that: the
consumers by name, in victim-selection order, each with its node in
every overlay it belongs to.  A crash takes a member down in all of
them at once (one peer failing, paper §5.3 — the source never leaves,
§2.1.2) and a rejoin burst brings it back in all of them.  Window
faults (source/oracle outage, stale view, partition) land in the one
``FaultState`` that every overlay's gated oracle and construction
algorithm read, so they are correlated across overlays by construction;
partition sides are keyed by consumer name, so a member sits on one
side everywhere.

The runner calls :meth:`FaultInjector.inject` once per round — *after*
the round's action roster has been shuffled, so crash victims can land
mid-schedule and the sweep's ``if not node.online`` guard is what keeps
them from acting posthumously (a tested behaviour, not a defensive
nicety).

Every random choice the injector makes (crash victims, partition sides)
comes from the dedicated ``"faults"`` RNG stream handed in by the
runner's :class:`~repro.sim.rng.StreamFactory`.  A plan that fires
nothing draws nothing, which is what makes a
:class:`~repro.faults.plan.NullFaultPlan` run bit-identical to a run
with no plan installed.

Injections are reported as :class:`~repro.obs.events.FaultInjected`
protocol events through the overlays' probe and recorded in
:attr:`FaultInjector.fault_rounds`, which a
:class:`~repro.sim.metrics.RecoveryTracker` reads directly for the
recovery metrics — time-to-recover and the per-fault recovery series.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Sequence

from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.core.tree import Overlay
from repro.faults.oracle import FaultGatedOracle
from repro.faults.plan import (
    CrashNodes,
    FaultPlan,
    FaultSpec,
    MassCrash,
    OracleOutage,
    SourceOutage,
    StaleOracleView,
    ViewPartition,
)
from repro.faults.state import FaultState


class Members:
    """A run's consumers by name, each with its node in every overlay it
    belongs to: the one mechanism that takes a member down or brings it
    back, for churn, fault plans and a soak's exodus and rejoin acts.

    ``names`` is the victim-selection order and may grow as the run goes
    (a soak's flash crowd appends to it); ``tables[i]`` maps a name to
    its node in ``overlays[i]`` and leaves out names that are not in
    that overlay.  The names present at construction are the starting
    population: a :class:`~repro.faults.plan.CrashNodes` id is a
    consumer's node id in an overlay built from it, i.e. its 1-based
    position.  A repeated name would hide a consumer, so it is refused.
    """

    def __init__(
        self,
        overlays: Sequence[Overlay],
        names: List[str],
        tables: Sequence[Dict[str, Node]],
    ) -> None:
        if len(set(names)) < len(names):
            repeated = next(n for n, count in Counter(names).items() if count > 1)
            raise ConfigurationError(
                "churn, fault plans and the paths of a multipath run "
                f"tell consumers apart by name; {repeated!r} is repeated"
            )
        self.overlays = list(overlays)
        self.names = names
        self.tables = list(tables)
        self.starting = len(names)

    @classmethod
    def of_overlay(cls, overlay: Overlay) -> "Members":
        """The consumers of one overlay, in id order."""
        consumers = overlay.consumers
        table = {node.name: node for node in consumers}
        return cls([overlay], [node.name for node in consumers], [table])

    def is_online(self, name: str) -> bool:
        """Whether the member is online in any overlay."""
        for table in self.tables:
            node = table.get(name)
            if node is not None and node.online:
                return True
        return False

    def online(self) -> List[str]:
        """The members online anywhere, in victim-selection order."""
        return [name for name in self.names if self.is_online(name)]

    def take_down(self, name: str, graceful: bool = True, reason: str = "") -> bool:
        """Take the member offline in every overlay it is online in;
        returns whether it was online anywhere.  ``reason`` labels the
        detaches (default: ``leave``, or ``crash`` if not graceful)."""
        reason = reason or ("leave" if graceful else "crash")
        left = False
        for overlay, table in zip(self.overlays, self.tables):
            node = table.get(name)
            if node is not None and node.online:
                overlay.go_offline(node, graceful=graceful, reason=reason)
                left = True
        return left

    def bring_up(self, name: str) -> bool:
        """Bring the member back in every overlay it is offline in;
        returns whether it was offline anywhere."""
        revived = False
        for overlay, table in zip(self.overlays, self.tables):
            node = table.get(name)
            if node is not None and not node.online:
                overlay.go_online(node)
                revived = True
        return revived


class FaultInjector:
    """Applies one fault plan to one run's members, round by round."""

    def __init__(
        self,
        members: Members,
        plan: FaultPlan,
        rng: random.Random,
    ) -> None:
        self.members = members
        self.plan = plan
        self.rng = rng
        self.state = FaultState()
        #: Lifetime counts, surfaced on the run's result; crashes and
        #: rejoins count members, not overlay participations.
        self.injected = 0
        self.crashes = 0
        self.rejoins = 0
        #: The round of every injection, in order.
        self.fault_rounds: List[int] = []
        self._by_round: Dict[int, List[FaultSpec]] = {}
        for spec in plan.specs:
            self._by_round.setdefault(spec.round, []).append(spec)
            if isinstance(spec, CrashNodes):
                for node_id in spec.node_ids:
                    if not 1 <= node_id <= members.starting:
                        raise ConfigurationError(
                            f"CrashNodes id {node_id} names no consumer "
                            f"(ids are 1..{members.starting})"
                        )
        #: round -> member names due to rejoin in a burst that round.
        self._pending_rejoins: Dict[int, List[str]] = {}

    def gate(self, algorithm, rng: random.Random) -> FaultGatedOracle:
        """Wrap ``algorithm``'s oracle in a :class:`FaultGatedOracle` on
        this run's fault state (degraded answers draw from ``rng``, stale
        ones from snapshots of the rounds the plan's stale windows can
        read), let the algorithm see the source-outage window, and
        return the gated oracle."""
        oracle = FaultGatedOracle(
            algorithm.oracle,
            algorithm.overlay,
            self.state,
            rng,
            self.plan,
        )
        algorithm.oracle = oracle
        algorithm.faults = self.state
        return oracle

    # ------------------------------------------------------------------

    def inject(self, now: int) -> None:
        """Advance fault state to round ``now`` and fire due specs."""
        self.state.now = now
        due_rejoins = self._pending_rejoins.pop(now, None)
        if due_rejoins:
            self._mass_rejoin(now, due_rejoins)
        for spec in self._by_round.pop(now, ()):
            self._apply(spec, now)

    # ------------------------------------------------------------------

    def _fired(self, now: int, fault: str, affected: int) -> None:
        self.injected += 1
        self.fault_rounds.append(now)
        # The run's probe, shared through its overlays.
        probe = self.members.overlays[0].probe
        if probe.enabled:
            probe.fault_injected(fault, affected)

    def _apply(self, spec: FaultSpec, now: int) -> None:
        members = self.members
        if isinstance(spec, MassCrash):
            online = members.online()  # selection order: deterministic
            count = max(1, round(len(online) * spec.fraction)) if online else 0
            victims = self.rng.sample(online, count) if count else []
            self._crash(now, victims, spec.graceful, spec.rejoin_after)
            self._fired(
                now, "mass-leave" if spec.graceful else "mass-crash", len(victims)
            )
        elif isinstance(spec, CrashNodes):
            named = [members.names[node_id - 1] for node_id in spec.node_ids]
            victims = [name for name in named if members.is_online(name)]
            self._crash(now, victims, spec.graceful, spec.rejoin_after)
            self._fired(now, "crash-nodes", len(victims))
        elif isinstance(spec, SourceOutage):
            self.state.source_down_until = max(
                self.state.source_down_until, now + spec.duration
            )
            self._fired(now, "source-outage", spec.duration)
        elif isinstance(spec, OracleOutage):
            self.state.oracle_down_until = max(
                self.state.oracle_down_until, now + spec.duration
            )
            self._fired(now, "oracle-outage", spec.duration)
        elif isinstance(spec, StaleOracleView):
            self.state.stale_until = max(
                self.state.stale_until, now + spec.duration
            )
            self.state.staleness = spec.staleness
            self._fired(now, "stale-view", spec.duration)
        elif isinstance(spec, ViewPartition):
            # Every member gets a side, online or not — a peer that
            # rejoins mid-partition lands on its assigned side.
            self.state.side_of = {
                name: self.rng.randrange(spec.sides) for name in members.names
            }
            self.state.partition_until = max(
                self.state.partition_until, now + spec.duration
            )
            self._fired(now, "partition", spec.sides)
        else:  # pragma: no cover - plan validation rejects unknown specs
            raise TypeError(f"unhandled fault spec {spec!r}")

    def _crash(self, now, victims: List[str], graceful: bool, rejoin_after) -> None:
        for name in victims:
            self.members.take_down(name, graceful)
            self.crashes += 1
        if rejoin_after is not None and victims:
            self._pending_rejoins.setdefault(now + rejoin_after, []).extend(victims)

    def _mass_rejoin(self, now: int, names: List[str]) -> None:
        """Bring a crash cohort back in one burst (thundering herd)."""
        revived = 0
        for name in names:
            # Churn may have beaten the burst to the rejoin.
            if self.members.bring_up(name):
                revived += 1
                self.rejoins += 1
        if revived:
            self._fired(now, "mass-rejoin", revived)
