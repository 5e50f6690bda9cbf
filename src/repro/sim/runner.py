"""The discrete-time construction simulator (§4).

One :class:`Simulation` runs one LagOver construction: a workload is
instantiated as an overlay of parentless consumers, and rounds proceed
until every online consumer meets its latency constraint (or a round
budget runs out).  Per round, after the churn process (if any) and the
oracle's refresh, every free online consumer acts once in randomized
order (:meth:`~repro.core.protocol.ConstructionAlgorithm.sweep`) —
parentless nodes execute a construction step (timeout / referral /
oracle interaction), parented nodes run their maintenance rule unless
it is *settled*, i.e. has nothing to do until the node's chain next
changes (:meth:`~repro.core.protocol.ConstructionAlgorithm.due`).

Time here is the *construction* clock of §2.1.1's decoupled-time model;
the feed-staleness clock lives in :mod:`repro.feeds` and is measured in
pull periods, not rounds.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

from repro.core.convergence import OverlayQuality, measure
from repro.core.errors import ConfigurationError
from repro.core.greedy import GreedyConstruction
from repro.core.hybrid import HybridConstruction
from repro.core.protocol import ConstructionAlgorithm, ProtocolConfig
from repro.core.tree import Overlay
from repro.faults.injector import FaultInjector, Members
from repro.faults.plan import FaultPlan
from repro.obs.health import HealthConfig, HealthRecorder
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.timing import PhaseTimings
from repro.obs.trace import StalenessAttributor
from repro.oracles.base import ORACLES, Oracle
from repro.oracles.distributed import realize_oracle
from repro.sim.asynchrony import AsynchronyConfig, AsynchronyModel
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import StreamFactory, shuffle
from repro.sim.trace import OverlayTrace
from repro.workloads.base import Workload

#: Algorithm name -> class, for config-driven instantiation.
ALGORITHMS = {
    GreedyConstruction.name: GreedyConstruction,
    HybridConstruction.name: HybridConstruction,
}


def register_algorithm(cls) -> None:
    """Register a construction-algorithm variant for config-driven use.

    Lets extensions and ablations (e.g. a knee-jerk-maintenance greedy)
    run through the standard :class:`Simulation` machinery under their
    own ``cls.name``.
    """
    if not issubclass(cls, ConstructionAlgorithm):
        raise ConfigurationError(f"{cls!r} is not a ConstructionAlgorithm")
    if not cls.name or cls.name == "abstract":
        raise ConfigurationError("algorithm variants need a distinct name")
    ALGORITHMS[cls.name] = cls


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Everything that parameterizes one construction run except the
    workload itself.

    Attributes
    ----------
    algorithm:
        ``"greedy"`` or ``"hybrid"``.
    oracle:
        One of the names in :data:`repro.oracles.base.ORACLES`.
    oracle_realization:
        ``"omniscient"`` (paper's simulation model, default), ``"dht"``
        (Chord-hosted directory), ``"sharded"`` (consistent-hash sharded
        reservoirs with batched per-round draws — the N=100k scale path,
        see :mod:`repro.oracles.sharded`) or ``"random-walk"`` (gossip
        walkers, Oracle Random only) — see
        :mod:`repro.oracles.distributed`.
    protocol:
        Timeout and maintenance tunables (:class:`ProtocolConfig`).
    churn:
        Membership dynamics, or ``None`` for a static population.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` of adversarial regimes
        (mass crashes, source/oracle outages, stale views, partitions),
        or ``None`` for none.  Injections draw only from the dedicated
        ``faults`` / ``faults-oracle`` RNG streams, so installing a
        :class:`~repro.faults.plan.NullFaultPlan` is bit-identical to
        ``None`` (pinned by the golden-seed guard in
        ``tests/test_faults.py``).
    asynchrony:
        Heterogeneous interaction durations, or ``None`` for the
        synchronous model.
    max_rounds:
        Round budget; a run that does not converge within it is reported
        with ``converged=False`` (this is an expected outcome for the
        O2a/O2b oracles and for Greedy on adversarial workloads).
    seed:
        Root seed; all internal streams derive from it.
    stop_at_convergence:
        Stop at the first converged round (the construction-latency
        experiments) or keep running to ``max_rounds`` (steady-state /
        churn-resilience studies).
    record_trace:
        Capture a parent-map snapshot every round (memory-heavier; used
        by the walkthrough example and structural tests).
    probe:
        Observability tap (:mod:`repro.obs`) receiving every protocol
        event of the run, or ``None`` for the zero-cost
        :class:`~repro.obs.probe.NullProbe`.  Probes never consume RNG
        and never change outcomes; they compare by identity, so two
        otherwise-equal configs with distinct probes are unequal.
    health:
        A :class:`~repro.obs.health.HealthConfig` to keep the
        flight-recorder health timeseries on for the run, or ``None``
        (default) for no capture.  Like probes, the recorder never
        consumes RNG and never changes outcomes.
    attribution:
        Keep a round-domain :class:`~repro.obs.trace.StalenessAttributor`
        running (per-consumer staleness decomposed into depth and named
        stall components).  Same never-perturbs contract.
    paths:
        Number of upstream-disjoint overlay paths to build (§7
        multipath).  ``1`` (default) is the ordinary single-overlay run;
        ``>1`` routes the run through
        :class:`repro.multipath.delivery.MultipathSystem`, which splits
        each consumer's fanout budget across the paths and enforces
        upstream disjointness at attach time (dispatched by
        :func:`repro.spec.execute`; churn moves a peer on every path at
        once; no ``asynchrony``).
    time_model:
        ``"rounds"`` (default, the paper's synchronous clock —
        bit-identical to pre-continuous behavior) or
        ``"continuous:<profile>"``, which routes
        :func:`make_simulation` / :func:`run_simulation` through the
        event-driven :class:`~repro.sim.continuous.ContinuousSimulation`
        with per-edge latencies from the named
        :mod:`repro.locality.geo` profile (see ``docs/TIMING.md``).
        Kept as a plain string so configs stay frozen, hashable, and
        picklable across :mod:`repro.par` pools.
    """

    algorithm: str = "greedy"
    oracle: str = "random-delay"
    oracle_realization: str = "omniscient"
    protocol: ProtocolConfig = dataclasses.field(default_factory=ProtocolConfig)
    churn: Optional[ChurnConfig] = None
    faults: Optional[FaultPlan] = None
    asynchrony: Optional[AsynchronyConfig] = None
    max_rounds: int = 3000
    seed: int = 0
    stop_at_convergence: bool = True
    record_trace: bool = False
    probe: Optional[Probe] = None
    health: Optional[HealthConfig] = None
    attribution: bool = False
    paths: int = 1
    time_model: str = "rounds"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        if self.oracle not in ORACLES:
            raise ConfigurationError(
                f"unknown oracle {self.oracle!r}; choose from {sorted(ORACLES)}"
            )
        if self.oracle_realization not in (
            "omniscient",
            "dht",
            "sharded",
            "random-walk",
        ):
            raise ConfigurationError(
                f"unknown oracle realization {self.oracle_realization!r}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan or None, got {self.faults!r}"
            )
        if self.health is not None and not isinstance(self.health, HealthConfig):
            raise ConfigurationError(
                f"health must be a HealthConfig or None, got {self.health!r}"
            )
        if self.paths < 1:
            raise ConfigurationError("paths must be >= 1")
        if self.paths > 1 and self.asynchrony is not None:
            raise ConfigurationError(
                "asynchrony is a single-overlay model; paths > 1 runs "
                "without it"
            )
        from repro.sim.timemodel import parse_time_model

        if parse_time_model(self.time_model).continuous:
            if self.asynchrony is not None:
                raise ConfigurationError(
                    "asynchrony is a rounds-mode model; the continuous "
                    "engine derives real interaction durations from the "
                    "latency substrate instead"
                )
            if self.paths > 1:
                raise ConfigurationError(
                    "the continuous time model is single-overlay; "
                    "--paths > 1 runs on the rounds clock"
                )

    def with_(self, **changes) -> "SimulationConfig":
        """A copy with the given fields replaced (sweep convenience)."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Outcome of one construction run.

    ``construction_rounds`` is the paper's *construction latency*: the
    first round at which every online consumer met its constraint
    (``None`` if that never happened within the budget).

    ``phase_timings`` is the per-phase wall-clock breakdown of the run
    (:meth:`repro.obs.timing.PhaseTimings.summary` form).  It is
    excluded from equality so wall-clock noise can never make two
    otherwise-identical seeded runs compare unequal — the determinism
    guards rely on that.
    """

    workload_name: str
    algorithm: str
    oracle: str
    seed: int
    converged: bool
    construction_rounds: Optional[int]
    rounds_run: int
    final_quality: OverlayQuality
    satisfied_series: List[float]
    attaches: int
    detaches: int
    oracle_misses: int
    departures: int
    rejoins: int
    phase_timings: Dict[str, Dict[str, float]] = dataclasses.field(
        default_factory=dict, compare=False, repr=False
    )
    #: Fraction of satisfied node-rounds over the whole run (1.0 when
    #: every consumer was satisfied every measured round).
    availability: float = 1.0
    #: Worst rounds-to-reconverge over all injected faults; ``None`` when
    #: no fault fired or some fault was never recovered from in-budget.
    time_to_recover: Optional[int] = None
    #: Number of fault injections the plan fired.
    fault_events: int = 0
    #: Rounds-to-reconverge per fault event, in injection order
    #: (``None`` entries mark faults never recovered from).
    recovery_series: List[Optional[int]] = dataclasses.field(
        default_factory=list
    )
    #: Which clock produced this result (``"rounds"`` or
    #: ``"continuous:<profile>"``).  The wall-clock fields below are
    #: only populated by the continuous engine; in rounds mode they
    #: keep their defaults, so pre-continuous results are bit-identical.
    time_model: str = "rounds"
    #: Simulated wall-clock milliseconds elapsed at the end of the run.
    sim_time_ms: Optional[float] = None
    #: Timestamped events the continuous engine fired: its work counter
    #: (settled nodes sleep and fire none), not a simulated outcome.
    events_fired: int = 0
    #: Wall-clock staleness percentiles over rooted online consumers
    #: (pull wait + summed transit legs, in milliseconds; see
    #: ``docs/TIMING.md``).
    staleness_ms_p50: Optional[float] = None
    staleness_ms_p99: Optional[float] = None
    #: ``time_to_recover`` restated in milliseconds (worst recovery,
    #: rounds times the profile's round tick).
    time_to_recover_ms: Optional[float] = None


class Simulation:
    """One construction run, stepwise-inspectable.

    Typical use is the one-shot :meth:`run`; tests and examples can
    instead call :meth:`run_round` repeatedly and inspect
    :attr:`overlay` / :attr:`metrics` / :attr:`trace` between rounds.
    """

    def __init__(
        self,
        workload: Workload,
        config: SimulationConfig,
        oracle_factory=None,
        probe: Optional[Probe] = None,
    ) -> None:
        self.workload = workload
        self.config = config
        self.streams = StreamFactory(config.seed)
        self.overlay: Overlay = workload.build_overlay()
        # Explicit argument beats the config slot beats the null default.
        self.probe: Probe = (
            probe if probe is not None
            else config.probe if config.probe is not None
            else NULL_PROBE
        )
        self.overlay.probe = self.probe
        self.timings = PhaseTimings()
        if oracle_factory is not None:
            # Escape hatch for custom oracles (locality bias, multi-feed
            # reuse, ...): a callable (overlay, rng) -> Oracle.
            self.oracle: Oracle = oracle_factory(
                self.overlay, self.streams.get("oracle")
            )
        else:
            self.oracle = realize_oracle(
                config.oracle_realization,
                config.oracle,
                self.overlay,
                self.streams.get("oracle"),
            )
        self.metrics = MetricsCollector(self.overlay)
        algorithm_cls = ALGORITHMS[config.algorithm]
        self.algorithm: ConstructionAlgorithm = algorithm_cls(
            self.overlay, self.oracle, config.protocol
        )
        # Churn and the fault plan move peers through one Members view.
        # The injector applies the plan from its own RNG stream, and
        # gates the algorithm's oracle so outage / stale-view /
        # partition windows degrade its answers.  With no plan there is
        # no injector and no wrapper — and with a NullFaultPlan neither
        # ever draws, so both setups are bit-identical to each other.
        # Post-construction wiring keeps the 3-argument construction
        # idiom working for every registered algorithm variant.
        members = None
        if config.churn is not None or config.faults is not None:
            members = Members.of_overlay(self.overlay)
        self.injector: Optional[FaultInjector] = None
        if config.faults is not None:
            self.injector = FaultInjector(
                members, config.faults, self.streams.get("faults")
            )
            self.metrics.track(self.injector.fault_rounds)
            self.oracle = self.injector.gate(
                self.algorithm, self.streams.get("faults-oracle")
            )
        self.algorithm.backoff_rng = self.streams.get("backoff")
        self.churn = (
            ChurnProcess(members, config.churn, self.streams.get("churn"))
            if config.churn is not None
            else None
        )
        self.asynchrony = (
            AsynchronyModel(config.asynchrony, self.streams.get("asynchrony"))
            if config.asynchrony is not None
            else None
        )
        self.trace = OverlayTrace(self.overlay) if config.record_trace else None
        # v2 observability layers (both read-only; neither consumes RNG).
        self.health: Optional[HealthRecorder] = (
            HealthRecorder(self.overlay, config.health)
            if config.health is not None
            else None
        )
        self.attributor: Optional[StalenessAttributor] = (
            StalenessAttributor(
                self.overlay,
                faults=self.injector.state if self.injector else None,
            )
            if config.attribution
            else None
        )
        self.now = 0
        self._order_rng = self.streams.get("order")

    # ------------------------------------------------------------------

    def run_round(self) -> None:
        """Advance the simulation by one round.

        Each round decomposes into the phases ``churn`` / ``oracle`` /
        the act phase (:meth:`_act_phase`) / ``measure``,
        wall-clock-timed into :attr:`timings` from one clock read at
        each phase boundary; an enabled probe sees the round's framing
        and every protocol event in between.  Neither timing nor probing
        consumes RNG.
        """
        self.now += 1
        now = self.now
        probe = self.probe
        observed = probe.enabled
        if observed:
            probe.begin_round(now)
        add = self.timings.add
        clock = time.perf_counter
        round_start = mark = clock()
        departures = rejoins = 0
        if self.churn is not None:
            departures, rejoins = self.churn.step(now)
            churned = clock()
            add("churn", churned - mark)
            mark = churned
        self.oracle.on_round(now)
        add("oracle", clock() - mark)
        self._act_phase()
        mark = clock()
        self.metrics.record(now, departures=departures, rejoins=rejoins)
        if self.trace is not None:
            self.trace.capture(now)
        if self.health is not None:
            self.health.capture(now, departures=departures, rejoins=rejoins)
        if self.attributor is not None:
            self.attributor.observe_round(now)
        round_end = clock()
        add("measure", round_end - mark)
        if observed:
            probe.end_round(now, round_end - round_start)

    def _act_phase(self) -> None:
        """Every online consumer acts once, in a fresh random order
        (phases ``faults`` / ``step`` / ``maintain``)."""
        nodes = self.overlay.online_consumers
        shuffle(self._order_rng, nodes)
        # Faults fire *after* the roster shuffle, so crash victims can sit
        # anywhere in this round's schedule — the sweep's liveness guard
        # is what keeps them from acting posthumously.
        self._inject_faults()
        step_seconds, step_calls, maintain_seconds, maintain_calls = (
            self.algorithm.sweep(nodes, self.now, self.asynchrony)
        )
        if maintain_calls:
            self.timings.add("maintain", maintain_seconds, maintain_calls)
        if step_calls:
            self.timings.add("step", step_seconds, step_calls)

    def _inject_faults(self) -> None:
        """The ``faults`` phase: fire the plan's injections for this
        round (nothing without a plan)."""
        if self.injector is not None:
            start = time.perf_counter()
            self.injector.inject(self.now)
            self.timings.add("faults", time.perf_counter() - start)

    def run(self) -> SimulationResult:
        """Run to convergence or to the round budget; return the result.

        The convergence check reuses the quality already measured at the
        end of the round.
        """
        while self.now < self.config.max_rounds:
            self.run_round()
            if (
                self.config.stop_at_convergence
                and self.metrics.records[-1].quality.converged
            ):
                break
        return self.result()

    def result(self) -> SimulationResult:
        """Package the current state as a :class:`SimulationResult`."""
        return overlay_result(
            self,
            self.metrics,
            self.algorithm,
            self.config.oracle,
            departures=self.churn.total_departures if self.churn else 0,
            rejoins=self.churn.total_rejoins if self.churn else 0,
            phase_timings=self.timings.summary(),
        )


def overlay_result(
    run,
    metrics: MetricsCollector,
    algorithm: ConstructionAlgorithm,
    oracle: str,
    departures: int = 0,
    rejoins: int = 0,
    phase_timings: Optional[Dict[str, Dict[str, float]]] = None,
) -> SimulationResult:
    """The result of one overlay of ``run`` (a :class:`Simulation` or a
    :class:`~repro.multipath.delivery.MultipathSystem`): ``run`` gives
    the workload, seed and round count, ``algorithm`` its name and its
    (gated) oracle's misses, ``metrics`` the rest."""
    overlay = metrics.overlay
    recovery = metrics.recovery
    first = metrics.first_converged_round()
    return SimulationResult(
        workload_name=run.workload.name,
        algorithm=algorithm.name,
        oracle=oracle,
        seed=run.streams.root_seed,
        converged=first is not None,
        construction_rounds=first,
        rounds_run=run.now,
        final_quality=measure(overlay),
        satisfied_series=metrics.satisfied_series(),
        attaches=overlay.attach_count,
        detaches=overlay.detach_count,
        oracle_misses=algorithm.oracle.misses,
        departures=departures,
        rejoins=rejoins,
        phase_timings=phase_timings or {},
        availability=metrics.availability(),
        time_to_recover=recovery.time_to_recover() if recovery else None,
        fault_events=len(recovery.disruptions) if recovery else 0,
        recovery_series=recovery.series() if recovery else [],
    )


def make_simulation(
    workload: Workload,
    config: SimulationConfig,
    probe: Optional[Probe] = None,
):
    """The engine for a config: rounds-mode :class:`Simulation` or the
    event-driven :class:`~repro.sim.continuous.ContinuousSimulation`.

    Every entry point that honors ``config.time_model`` (the CLI, the
    sweep worker, benchmarks) routes through here, so the two engines
    can never be selected inconsistently.  Either way the returned
    object is a :class:`Simulation`.
    """
    from repro.sim.timemodel import parse_time_model

    if parse_time_model(config.time_model).continuous:
        from repro.sim.continuous import ContinuousSimulation

        return ContinuousSimulation(workload, config, probe=probe)
    return Simulation(workload, config, probe=probe)


def run_simulation(workload: Workload, config: SimulationConfig) -> SimulationResult:
    """Convenience one-shot: build, run, return the result."""
    return make_simulation(workload, config).run()
