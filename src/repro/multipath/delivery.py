"""Multipath delivery over multiple LagOvers (§7 future work).

"One promising application is that of peer-to-peer video delivery based
on multipath routing, where each peer participates in multiple LagOvers
with different time constraints - one LagOver for each of the multiple
paths."

:class:`MultipathSystem` builds ``k`` LagOvers from one source over one
consumer population.  Path ``p`` carries the ``p``-th description of the
stream with a latency tolerance of ``l_i + p`` (later descriptions may
arrive later, as in multiple-description coding), and each consumer's
fanout budget is stripe-interleaved across the paths it serves — the
*total* budget never exceeds the workload's ``f_i``, so k-path runs are
comparable to single-path runs at equal capacity.

The payoff is **path diversity**: a consumer keeps receiving as long as
any of its chains to the source survives.  v2 makes the diversity a
guarantee instead of a bias: upstream disjointness is *enforced*.

* At attach time, each path's construction algorithm runs behind a
  composed edge policy: the candidate parent's whole chain to the source
  must be vertex-disjoint (interior nodes; the shared source and the
  consumer itself excepted) from the consumer's chains on every other
  path, on top of the algorithm's own edge invariant.  ``try_attach``
  checks the policy on every non-source edge, so no overlapping edge can
  be created by steps, referrals, displacements or splices.
* :class:`DisjointDelayOracle` (O3 + the same disjointness filter) keeps
  the search efficient — candidates that the edge policy would reject
  are never sampled.  The oracle is an optimization; the edge policy is
  the guarantee.
* Upstream *reconfigurations* can still create overlaps behind a
  consumer's back (path p re-homes an ancestor into territory path q
  already uses).  A per-round repair pass detects any cross-path chain
  intersection and severs the higher-index path's edge
  (:class:`~repro.obs.events.MultipathOverlap` is emitted); the consumer
  then re-attaches through the disjointness-enforcing policy.
  :meth:`MultipathSystem.all_converged` requires zero overlaps, so a
  converged system is vertex-disjoint by construction *and* by check.

Churn and fault plans compose: the run's one
:class:`~repro.faults.injector.Members` view sees a consumer as one
member with a twin on every path, so one churn chain and one
:class:`~repro.faults.injector.FaultInjector` drive all k overlays (a
peer leaves or crashes out of every path at once); given a plan, each
path's oracle is wrapped in a
:class:`~repro.faults.oracle.FaultGatedOracle` sharing the injector's
one :class:`~repro.faults.state.FaultState`, and per-path
:class:`~repro.sim.metrics.MetricsCollector`\\ s feed per-path
:class:`~repro.sim.runner.SimulationResult`\\ s plus system-level
delivery metrics (availability of "≥ 1 rooted path",
paths-surviving distribution, delivery time-to-recover).

One caveat worth knowing when reading traces: stale oracle *views*
(``stale@...``) answer from pre-fault snapshots and are not
disjointness-filtered — a stale answer may point at an overlapping
parent.  That is intended fidelity (a stale directory cannot know the
consumer's current chains); the edge policy still rejects the attach,
so the guarantee holds and the failed attempt shows up as an
``attach-reject`` with reason ``"edge-policy"``.

Design notes (variants tried and rejected — do not re-try casually):

* *Subtree-aware edge validation* (checking the whole subtree of the
  attaching node, since descendants inherit the candidate chain too)
  eliminates policy-side overlap creation entirely, but over-constrains
  reconfiguration: interior nodes with large subtrees become unmovable,
  paths stall below satisfaction, and the starvation repair thrashes.
  Every k=3 cell tested got *worse*.
* *Severing the shared interior node* instead of the affected consumer
  during overlap repair orphans whole subtrees per repair and collapses
  even k=2 cells into permanent churn.
* *Strike-based escalation* (re-rolling the consumer's winning chain
  after repeated repairs of the same losing path) destabilizes the
  lower paths that priority exists to protect; k=3 round counts
  ballooned and large cells stopped converging.

What ships — self-only edge policy, higher-path-loses consumer repair,
and the starvation re-roll for total cross-path blockage — converges
reliably at k=2 across families/sizes/seeds; k=3 converges on
moderately sized draws but can livelock on tight large ones (fanout
split three ways plus vertex-disjointness leaves little slack).  The
golden ledger pins k=3 configurations that converge deterministically.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.constraints import NodeSpec
from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.core.protocol import ProtocolConfig
from repro.core.tree import Overlay
from repro.faults.injector import FaultInjector, Members
from repro.faults.plan import FaultPlan
from repro.obs.probe import NULL_PROBE, Probe
from repro.oracles.base import Oracle
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.metrics import MetricsCollector, RecoveryTracker
from repro.sim.rng import StreamFactory, shuffle
from repro.sim.runner import ALGORITHMS, SimulationResult, overlay_result
from repro.workloads.base import Workload
from repro.workloads.repair import repair_population


class DisjointDelayOracle(Oracle):
    """O3 (delay filter) restricted to cross-path disjoint candidates.

    A candidate is admitted when its delay leaves room under the
    enquirer's constraint (Oracle Random-Delay) *and* its own chain to
    the source avoids every interior node already on the enquirer's
    chains in the system's other paths.  Filtering here is what makes
    the search efficient; the composed edge policy on the construction
    algorithm re-checks the same condition at attach time and is the
    actual guarantee (oracle answers can go stale between sample and
    attach, and fault-gated stale views bypass live filters entirely).
    """

    name = "disjoint-delay"
    #: Stale-view snapshots (see :class:`~repro.faults.oracle.FaultGatedOracle`)
    #: filter recorded rows like O3; disjointness needs live chains and is
    #: left to the edge policy.
    filter_mode = "delay"

    def __init__(
        self,
        overlay: Overlay,
        rng: random.Random,
        system: "MultipathSystem",
        path: int,
    ) -> None:
        super().__init__(overlay, rng)
        self.system = system
        self.path = path
        # The blocked-name set is identical for every candidate checked
        # within one sample() pass, and can only change when some overlay
        # mutates an edge; key the memo on the system-wide mutation
        # counters so it is exact.
        self._blocked_key: Optional[tuple] = None
        self._blocked: Set[str] = set()

    def _blocked_for(self, enquirer: Node) -> Set[str]:
        key = (enquirer.name,) + tuple(
            (o.attach_count, o.detach_count) for o in self.system.overlays
        )
        if key != self._blocked_key:
            self._blocked_key = key
            self._blocked = self.system.upstream_elsewhere(
                enquirer.name, self.path
            )
        return self._blocked

    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        if not self.overlay.delay_at(candidate) < enquirer.latency:
            return False
        blocked = self._blocked_for(enquirer)
        if not blocked:
            return True
        current = candidate
        while current is not None and not current.is_source:
            if current.name in blocked:
                return False
            current = current.parent
        return True


@dataclasses.dataclass(frozen=True)
class ResilienceRow:
    """Delivery statistics at one failure fraction."""

    failed_fraction: float
    paths: int
    delivered_fraction: float  # consumers with >= 1 surviving chain
    mean_surviving_paths: float


@dataclasses.dataclass(frozen=True)
class MultipathResult:
    """Outcome of a :class:`MultipathSystem` run.

    ``per_path`` carries one full per-overlay
    :class:`~repro.sim.runner.SimulationResult` (availability,
    recovery series and all); the top-level fields are the *system*
    view, where "delivered" means at least one rooted chain.
    """

    paths: int
    algorithm: str
    seed: int
    converged: bool
    construction_rounds: Optional[int]
    rounds_run: int
    delivery_availability: float
    paths_surviving: Dict[int, int]
    delivery_recovery_series: List[Optional[int]]
    time_to_recover: Optional[int]
    fault_events: int
    overlap_repairs: int
    per_path: Tuple[SimulationResult, ...]

    def summary(self) -> SimulationResult:
        """A single-overlay-shaped summary for the sweep machinery:
        convergence and recovery are the *system* notions (all paths
        whole and disjoint; delivery = ≥ 1 rooted chain), quality and
        series take the worst path per round, counts sum over paths
        (but departures and rejoins count members)."""
        per_path = self.per_path
        worst = min(
            per_path, key=lambda r: r.final_quality.satisfied_fraction
        )
        series = [
            min(values) for values in zip(*(r.satisfied_series for r in per_path))
        ]
        return SimulationResult(
            workload_name=per_path[0].workload_name,
            algorithm=self.algorithm,
            oracle="disjoint-delay",
            seed=self.seed,
            converged=self.converged,
            construction_rounds=self.construction_rounds,
            rounds_run=self.rounds_run,
            final_quality=worst.final_quality,
            satisfied_series=series,
            attaches=sum(r.attaches for r in per_path),
            detaches=sum(r.detaches for r in per_path),
            oracle_misses=sum(r.oracle_misses for r in per_path),
            departures=per_path[0].departures,
            rejoins=per_path[0].rejoins,
            phase_timings={},
            availability=self.delivery_availability,
            time_to_recover=self.time_to_recover,
            fault_events=self.fault_events,
            recovery_series=self.delivery_recovery_series,
        )


class MultipathSystem:
    """k LagOvers carrying k descriptions of one stream."""

    def __init__(
        self,
        workload: Workload,
        paths: int = 2,
        seed: int = 0,
        protocol: Optional[ProtocolConfig] = None,
        algorithm: str = "hybrid",
        faults: Optional[FaultPlan] = None,
        probe: Optional[Probe] = None,
        churn: Optional[ChurnConfig] = None,
    ) -> None:
        if paths < 1:
            raise ConfigurationError("need at least one path")
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        if faults is not None and not isinstance(faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan, got {type(faults).__name__}"
            )
        self.paths = paths
        self.workload = workload
        self.seed = seed
        self.algorithm_name = algorithm
        self.probe: Probe = probe if probe is not None else NULL_PROBE
        self.streams = StreamFactory(seed)
        self.overlays: List[Overlay] = []
        self.algorithms = []
        self.oracles: List[Oracle] = []
        self._nodes: List[Dict[str, Node]] = []
        self._names: List[str] = [name for name, _ in workload.population]
        algorithm_cls = ALGORITHMS[algorithm]
        base_edge = algorithm_cls.edge_ok
        for path in range(paths):
            population = []
            for index, (name, spec) in enumerate(workload.population):
                share = spec.fanout // paths
                # Rotate the remainder across paths per consumer, so no
                # single path is systematically starved of capacity (with
                # fanout 2 split three ways, a fixed assignment would give
                # the last path fanout 0 at *every* such node).
                if (path - index) % paths < spec.fanout % paths:
                    share += 1
                population.append(
                    (name, NodeSpec(latency=spec.latency + path, fanout=share))
                )
            population, _ = repair_population(
                workload.source_fanout,
                population,
                self.streams.get(f"repair/{path}"),
            )
            overlay = Overlay(
                source_fanout=workload.source_fanout, source_name=f"s{path}"
            )
            overlay.probe = self.probe
            nodes = overlay.add_population(population)
            self.overlays.append(overlay)
            self._nodes.append({node.name: node for node in nodes})
        self.collectors = [MetricsCollector(o) for o in self.overlays]
        # Churn and injector after all overlays exist: a peer is one
        # member with a twin on every path, and the injector's FaultState
        # is shared by every path's gated oracle and algorithm.
        members = Members(self.overlays, self._names, self._nodes)
        self.churn: Optional[ChurnProcess] = None
        if churn is not None:
            self.churn = ChurnProcess(members, churn, self.streams.get("churn"))
        self.injector: Optional[FaultInjector] = None
        if faults is not None:
            self.injector = FaultInjector(
                members, faults, self.streams.get("faults")
            )
            for collector in self.collectors:
                collector.track(self.injector.fault_rounds)
        #: Full delivery again: every online consumer has >= 1 rooted chain.
        self.delivery_recovery = RecoveryTracker(
            self.injector.fault_rounds if self.injector else []
        )
        for path in range(paths):
            overlay = self.overlays[path]
            oracle: Oracle = DisjointDelayOracle(
                overlay, self.streams.get(f"oracle/{path}"), self, path
            )
            construction = algorithm_cls(
                overlay, oracle, protocol or ProtocolConfig()
            )
            construction.edge_ok = self._disjoint_edge(path, base_edge)
            construction.backoff_rng = self.streams.get(f"backoff/{path}")
            if self.injector is not None:
                oracle = self.injector.gate(
                    construction, self.streams.get(f"faults-oracle/{path}")
                )
            self.oracles.append(oracle)
            self.algorithms.append(construction)
        self.now = 0
        self.overlap_repairs = 0
        self._last_overlaps = 0
        self._first_converged: Optional[int] = None
        self._delivery_rows: List[Tuple[int, int, int]] = []
        self._order_rng = self.streams.get("order")
        #: Consecutive parentless rounds per (path, consumer) — the
        #: starvation detector behind :meth:`_repair_starvation`.
        self._parentless_rounds: Dict[Tuple[int, str], int] = {}
        #: Total starvation repairs (cross-path chain re-rolls).
        self.unblock_repairs = 0

    # ------------------------------------------------------------------
    # disjointness
    # ------------------------------------------------------------------

    def upstream_elsewhere(self, consumer: str, path: int) -> Set[str]:
        """Names on the consumer's chains to the source in *other* paths."""
        upstream: Set[str] = set()
        for other in range(self.paths):
            if other == path:
                continue
            node = self._nodes[other].get(consumer)
            if node is None:
                continue
            current = node.parent
            while current is not None and not current.is_source:
                upstream.add(current.name)
                current = current.parent
        return upstream

    def _disjoint_edge(
        self, path: int, base: Callable[[Node, Node], bool]
    ) -> Callable[[Node, Node], bool]:
        """The algorithm's own edge invariant AND cross-path disjointness.

        Installed as the instance-level ``edge_ok`` of path ``p``'s
        construction algorithm, so *every* non-source edge creation
        (attach, displacement, splice, referral follow-up) validates the
        candidate parent's whole chain against the child's chains on the
        other paths.

        Deliberately *self-only*: the child's descendants inherit the
        candidate chain too, but validating the whole subtree here was
        tried and over-constrains the system — interior nodes with large
        subtrees become unmovable, reconfiguration stalls, and the
        starvation repair thrashes.  Descendant overlaps created by a
        policy-clean move above them are instead drained by the
        end-of-round :meth:`_repair_overlaps` pass.
        """

        def edge_ok(parent: Node, child: Node) -> bool:
            if not base(parent, child):
                return False
            blocked = self.upstream_elsewhere(child.name, path)
            if not blocked:
                return True
            current = parent
            while current is not None and not current.is_source:
                if current.name in blocked:
                    return False
                current = current.parent
            return True

        return edge_ok

    def _chain_interior(self, path: int, consumer: str) -> FrozenSet[str]:
        """Interior names of the consumer's current chain on ``path``
        (strict ancestors, source excluded); empty when parentless."""
        node = self._nodes[path].get(consumer)
        if node is None or node.parent is None:
            return frozenset()
        names: Set[str] = set()
        current = node.parent
        while current is not None and not current.is_source:
            names.add(current.name)
            current = current.parent
        return frozenset(names)

    def _repair_overlaps(self) -> int:
        """Sever every cross-path chain overlap (higher path loses).

        Reconfigurations above a consumer can route two of its paths
        through the same interior node even though every individual edge
        passed the disjointness policy when created.  One pass per round
        over the population (name order — deterministic) detects any
        intersection and detaches the higher-index path's consumer edge;
        severing only ever *shrinks* chains, so no new overlap can
        appear mid-pass and a clean pass means a vertex-disjoint system.

        Keeping the *lower* path intact is what lets the system settle:
        path 0 converges as if single-path, path 1 configures around it,
        and so on.  The flip side is that deep stacks contend harder —
        k=2 converges reliably across families, sizes and seeds, while
        k=3 can exceed any round budget on tight draws (fanout split
        three ways plus vertex-disjointness leaves little slack; the
        golden ledger pins configurations that converge deterministically).
        Escalations that re-roll the winning chain, and subtree-aware
        edge validation, were both tried and make k=3 *worse* — see the
        module docstring's design notes.
        """
        if self.paths < 2:
            return 0
        repaired = 0
        for name in self._names:
            chains = [
                self._chain_interior(path, name) for path in range(self.paths)
            ]
            for q in range(1, self.paths):
                if not chains[q]:
                    continue
                for p in range(q):
                    shared = chains[p] & chains[q]
                    if not shared:
                        continue
                    node = self._nodes[q][name]
                    self.overlays[q].detach(node, reason="overlap")
                    if self.probe.enabled:
                        self.probe.multipath_overlap(
                            node.node_id, p, q, len(shared)
                        )
                    chains[q] = frozenset()
                    self.overlap_repairs += 1
                    repaired += 1
                    break
        return repaired

    #: Consecutive parentless rounds before :meth:`_repair_starvation`
    #: re-rolls a consumer's blocking chains.  Generously above the
    #: rounds an unblocked node needs to attach, so the repair only ever
    #: fires on genuine disjointness deadlocks.
    STARVATION_PATIENCE = 16

    def _repair_starvation(self) -> int:
        """Break cross-path disjointness deadlocks by re-rolling chains.

        Enforced disjointness admits a genuine deadlock the per-edge
        policy cannot see coming: a fragment root's chain on one path
        can run through *every* subtree the other path hangs off the
        source, leaving no admissible parent at all — both paths are
        individually stable, so no protocol move ever fixes it.  The
        repair is the multipath analogue of a self-stabilizing local
        reset: a consumer parentless on some path for
        :data:`STARVATION_PATIENCE` consecutive rounds *while its
        cross-path blocked set is non-empty* detaches itself on every
        other path, emptying its blocked set so the starved path can
        attach anywhere; the other paths then re-attach around the new
        chain.  Deterministic (id-ordered scan, no RNG) and idle once
        converged — a converged system has no parentless node.
        """
        if self.paths < 2:
            return 0
        repaired = 0
        counts = self._parentless_rounds
        for path in range(self.paths):
            for node in self.overlays[path].online_consumers:
                key = (path, node.name)
                if node.parent is not None:
                    counts.pop(key, None)
                    continue
                stuck = counts.get(key, 0) + 1
                if stuck < self.STARVATION_PATIENCE or not (
                    self.upstream_elsewhere(node.name, path)
                ):
                    counts[key] = stuck
                    continue
                for other in range(self.paths):
                    if other == path:
                        continue
                    twin = self._nodes[other][node.name]
                    if twin.online and twin.parent is not None:
                        self.overlays[other].detach(twin, reason="unblock")
                        if self.probe.enabled:
                            self.probe.multipath_overlap(
                                twin.node_id, path, other, 0
                            )
                        repaired += 1
                counts[key] = 0
                self.unblock_repairs += 1
        return repaired

    # ------------------------------------------------------------------
    # round loop
    # ------------------------------------------------------------------

    def run_round(self) -> None:
        self.now += 1
        now = self.now
        if self.probe.enabled:
            self.probe.begin_round(now)
        departures = rejoins = 0
        if self.churn is not None:
            departures, rejoins = self.churn.step(now)
        for oracle in self.oracles:
            oracle.on_round(now)
        rosters = []
        for overlay in self.overlays:
            roster = overlay.online_consumers
            shuffle(self._order_rng, roster)
            rosters.append(roster)
        if self.injector is not None:
            self.injector.inject(now)
        for algorithm, roster in zip(self.algorithms, rosters):
            algorithm.sweep(roster)
        self._last_overlaps = self._repair_overlaps()
        self._repair_starvation()
        self._measure(now, departures, rejoins)
        if self._first_converged is None and self.all_converged():
            self._first_converged = now

    def _measure(self, now: int, departures: int, rejoins: int) -> None:
        for collector in self.collectors:
            collector.record(now, departures=departures, rejoins=rejoins)
        online = self.overlays[0].online_consumers
        delivered = 0
        for node in online:
            name = node.name
            for path in range(self.paths):
                twin = self._nodes[path][name]
                if twin.online and self.overlays[path].is_rooted(twin):
                    delivered += 1
                    break
        self._delivery_rows.append((now, delivered, len(online)))
        self.delivery_recovery.observe(now, delivered == len(online))
        if self.probe.enabled:
            self.probe.multipath_delivery(delivered, len(online), self.paths)

    def run(
        self,
        max_rounds: int = 4000,
        stop_at_convergence: Optional[bool] = None,
    ) -> bool:
        """Run rounds; return whether the system converged.

        By default a faultless run stops at convergence and a run with a
        fault plan uses the whole budget (recovery metrics need the
        post-fault rounds), mirroring ``repro.sim``'s
        ``stop_at_convergence`` convention.
        """
        if stop_at_convergence is None:
            stop_at_convergence = not self.injector or self.injector.plan.empty
        while self.now < max_rounds:
            self.run_round()
            if stop_at_convergence and self.all_converged():
                break
        return self.all_converged()

    def all_converged(self) -> bool:
        """Every overlay converged and the last repair pass found no
        cross-path overlap: the system is whole *and* vertex-disjoint."""
        return self._last_overlaps == 0 and all(
            o.is_converged() for o in self.overlays
        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def delivery_availability(self) -> float:
        """Mean over rounds of ``delivered / online`` (1.0 before any
        measurement), where delivered means ≥ 1 rooted chain."""
        delivered = sum(row[1] for row in self._delivery_rows)
        online = sum(row[2] for row in self._delivery_rows)
        return delivered / online if online else 1.0

    def paths_surviving(self) -> Dict[int, int]:
        """Final-state histogram: rooted-path count -> online consumers."""
        dist: Dict[int, int] = {}
        for node in self.overlays[0].online_consumers:
            count = sum(
                1
                for path in range(self.paths)
                if self.overlays[path].is_rooted(self._nodes[path][node.name])
            )
            dist[count] = dist.get(count, 0) + 1
        return dict(sorted(dist.items()))

    def result(self) -> MultipathResult:
        """Package the current state as a :class:`MultipathResult`."""
        recovery = self.delivery_recovery.series()
        return MultipathResult(
            paths=self.paths,
            algorithm=self.algorithm_name,
            seed=self.seed,
            converged=self._first_converged is not None,
            construction_rounds=self._first_converged,
            rounds_run=self.now,
            delivery_availability=self.delivery_availability(),
            paths_surviving=self.paths_surviving(),
            delivery_recovery_series=recovery,
            time_to_recover=self.delivery_recovery.time_to_recover(),
            fault_events=len(recovery),
            overlap_repairs=self.overlap_repairs,
            per_path=tuple(
                overlay_result(
                    self,
                    self.collectors[path],
                    self.algorithms[path],
                    f"disjoint-delay/{path}",
                    departures=self.churn.total_departures if self.churn else 0,
                    rejoins=self.churn.total_rejoins if self.churn else 0,
                )
                for path in range(self.paths)
            ),
        )

    # ------------------------------------------------------------------
    # resilience analysis
    # ------------------------------------------------------------------

    def chain_alive(self, consumer: str, path: int, failed: Set[str]) -> bool:
        """Whether the consumer's path-``p`` chain to the source survives."""
        if consumer in failed:
            return False
        node = self._nodes[path].get(consumer)
        if node is None:
            return False
        current = node
        while current.parent is not None:
            current = current.parent
            if not current.is_source and current.name in failed:
                return False
        return current.is_source

    def delivery_under_failure(self, failed: Set[str]) -> Dict[str, int]:
        """For each surviving consumer: how many of its paths still work."""
        survivors = {}
        for name in self._names:
            if name in failed:
                continue
            survivors[name] = sum(
                1
                for path in range(self.paths)
                if self.chain_alive(name, path, failed)
            )
        return survivors


def delivery_under_failures(
    workload: Workload,
    paths: int,
    failure_fractions: List[float],
    seed: int = 0,
    trials: int = 5,
    max_rounds: int = 4000,
    algorithm: str = "hybrid",
) -> List[ResilienceRow]:
    """Build a k-path system and sweep random-failure fractions.

    Each row averages ``trials`` independent failure draws on the same
    built system (building is the expensive part; failures are cheap).
    The fanout budget is the workload's own ``f_i`` regardless of ``k``
    (stripe-interleaved split), so rows for different ``paths`` compare
    delivery at equal total capacity.
    """
    system = MultipathSystem(workload, paths=paths, seed=seed, algorithm=algorithm)
    if not system.run(max_rounds=max_rounds):
        raise ConfigurationError("multipath system failed to converge")
    fail_rng = system.streams.get("failures")
    names = [name for name, _ in workload.population]
    rows: List[ResilienceRow] = []
    for fraction in failure_fractions:
        delivered = 0
        survivors_total = 0
        surviving_paths = 0
        for _ in range(trials):
            count = int(round(fraction * len(names)))
            failed = set(fail_rng.sample(names, count))
            survivors = system.delivery_under_failure(failed)
            survivors_total += len(survivors)
            delivered += sum(1 for paths_ok in survivors.values() if paths_ok > 0)
            surviving_paths += sum(survivors.values())
        rows.append(
            ResilienceRow(
                failed_fraction=fraction,
                paths=paths,
                delivered_fraction=(
                    delivered / survivors_total if survivors_total else 1.0
                ),
                mean_surviving_paths=(
                    surviving_paths / survivors_total if survivors_total else 0.0
                ),
            )
        )
    return rows
