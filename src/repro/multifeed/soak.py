"""The multi-feed service soak: LagOver as a long-running service.

Everything before this module evaluates one construction episode or one
fault at a time.  A real deployment is neither: many feeds share one
population, audiences surge and desert, outages land while flash crowds
are still attaching, and the operator's question is not "did it
converge" but *"did p99 staleness stay inside the SLO, and how fast did
it come back when it didn't"*.

:class:`ServiceSoak` composes the §7 multi-feed substrate
(:class:`~repro.multifeed.system.MultiFeedSystem` with the reuse-biased
oracle), the :mod:`repro.faults` machinery and live dissemination
(:class:`~repro.feeds.dissemination.LagOverDissemination` with bursty
publishing) under one scripted timeline:

* **flash crowd** — the hot feed's audience multiplies within a few
  rounds (``flash@40:news:x10:ramp=3``);
* **mass exodus** — a fraction of a feed's audience tunes out at once,
  gracefully or by crash (``exodus@80:news:0.6`` /
  ``exodus@80:news:0.6:crash``);
* **rejoin** — the departed audience floods back
  (``rejoin@100:news``);
* **correlated faults** — any :func:`repro.faults.plan.parse_fault_plan`
  DSL plan, applied *across feeds* by the run's one
  :class:`~repro.faults.injector.FaultInjector`: a member is a consumer
  name, taken down in every feed it subscribes to, and every window
  lands in the one :class:`~repro.faults.state.FaultState` all feeds
  read.

The soak reports a :class:`SoakSummary`: per-feed staleness percentiles
(nearest-rank p50/p99/p999 over the service phase), availability,
time-to-recover after the last disruption, the flash-crowded feed's
before/after p99 and re-convergence time, and the cross-feed reuse
metrics.  Every random draw comes from dedicated
:class:`~repro.sim.rng.StreamFactory` streams, so a summary is a pure
function of its :class:`SoakConfig` — bit-identical serially and under
:mod:`repro.par` pooling.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from repro.core.constraints import NodeSpec
from repro.core.convergence import measure
from repro.core.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.feeds.dissemination import LagOverDissemination
from repro.feeds.source import FeedSource, bursty
from repro.feeds.staleness import staleness_percentiles
from repro.locality.geo import GeoLatencyModel, get_profile
from repro.multifeed.reuse import reuse_oracle_factory
from repro.multifeed.system import MultiFeedSystem, ReuseMetrics
from repro.obs.probe import NULL_PROBE, Probe
from repro.sim.metrics import RecoveryTracker
from repro.sim.rng import derive_seed
from repro.sim.timemodel import parse_time_model

# ----------------------------------------------------------------------
# the scripted timeline
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SoakAct:
    """Base of all timeline acts: the soak round the act fires in."""

    round: int
    feed: str


@dataclasses.dataclass(frozen=True)
class FlashCrowd(SoakAct):
    """The feed's audience multiplies by ``multiplier`` within
    ``ramp_rounds`` rounds (newcomers join parentless and attach through
    normal construction — the herd is the stress, not a shortcut).

    Latecomers declare *tolerant* constraints — latency drawn from the
    upper half of the configured range: a mob of impatient newcomers is
    infeasible outright (a tree only has so many low-delay slots), and
    the soak gates on the feed actually re-converging."""

    multiplier: float = 10.0
    ramp_rounds: int = 3


@dataclasses.dataclass(frozen=True)
class MassExodus(SoakAct):
    """``fraction`` of the feed's online audience departs at once;
    ``graceful=False`` models a crash burst (no referral hand-off)."""

    fraction: float = 0.5
    graceful: bool = True


@dataclasses.dataclass(frozen=True)
class Rejoin(SoakAct):
    """Every offline participation in the feed comes back in one burst
    (the thundering herd after an exodus or crash)."""


def parse_timeline(text: str) -> Tuple[SoakAct, ...]:
    """Parse the soak timeline DSL.

    Comma-separated acts, each ``name@round[:arg[:arg...]]``::

        flash@40:news:x10:ramp=3     audience x10 over 3 rounds
        exodus@80:news:0.6           60% leave gracefully
        exodus@80:news:0.6:crash     ... or by crashing
        rejoin@100:news              the departed flood back

    >>> parse_timeline("flash@40:news:x10")[0].multiplier
    10.0
    """
    acts: List[SoakAct] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            head, _, rest = chunk.partition("@")
            args = rest.split(":")
            acts.append(_parse_act(head.strip(), args))
        except (ValueError, IndexError) as exc:
            raise ConfigurationError(
                f"bad timeline act {chunk!r}: {exc}"
            ) from exc
    if not acts:
        raise ConfigurationError(f"no timeline acts in {text!r}")
    return tuple(sorted(acts, key=lambda act: act.round))


def _parse_act(name: str, args: List[str]) -> SoakAct:
    round_, feed = int(args[0]), args[1]
    if name == "flash":
        multiplier, ramp = 10.0, 3
        for extra in args[2:]:
            if extra.startswith("x"):
                multiplier = float(extra[1:])
            elif extra.startswith("ramp="):
                ramp = int(extra[len("ramp="):])
            else:
                raise ValueError(f"unknown flash argument {extra!r}")
        return FlashCrowd(
            round=round_, feed=feed, multiplier=multiplier, ramp_rounds=ramp
        )
    if name == "exodus":
        fraction = float(args[2])
        graceful = True
        if len(args) > 3:
            if args[3] != "crash":
                raise ValueError(f"unknown exodus argument {args[3]!r}")
            graceful = False
        return MassExodus(
            round=round_, feed=feed, fraction=fraction, graceful=graceful
        )
    if name == "rejoin":
        return Rejoin(round=round_, feed=feed)
    raise ValueError(f"unknown act {name!r}")


# ----------------------------------------------------------------------
# configuration and summary
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SoakConfig:
    """One service soak, fully specified (picklable, value-equal).

    The summary is a pure function of this config: two processes given
    equal configs produce equal :class:`SoakSummary` objects, which is
    what the serial-vs-pooled guard in ``tests/test_soak.py`` and the
    golden ledger pin.
    """

    feed_ids: Tuple[str, ...] = ("news", "sports", "tech")
    consumer_count: int = 60
    seed: int = 0
    rounds: int = 120
    warmup_rounds: int = 30
    timeline: Tuple[SoakAct, ...] = ()
    faults: Optional[FaultPlan] = None
    pull_period: float = 1.0
    publish_rate: float = 0.5
    burst_size: int = 4
    subscribe_probability: float = 0.6
    source_fanout: int = 3
    total_fanout_range: Tuple[int, int] = (2, 8)
    max_latency: int = 10
    reuse_bias: float = 0.8
    recover_threshold: float = 0.9
    health_every: int = 5
    #: ``"rounds"`` (default) or ``"continuous:<profile>"``.  Continuous
    #: soaks route every feed's per-hop forwarding delay through the
    #: profile's geo latency model (keyed by consumer *name*, so one
    #: user has one location across all feeds) and restate staleness
    #: SLOs and time-to-recover in wall-clock milliseconds alongside the
    #: pull-period figures (``docs/TIMING.md``, ``docs/SCENARIOS.md``).
    time_model: str = "rounds"

    def __post_init__(self) -> None:
        parse_time_model(self.time_model)  # validates mode and profile
        if self.rounds <= self.warmup_rounds:
            raise ConfigurationError(
                "rounds must exceed warmup_rounds (no service phase)"
            )
        if not 0.0 < self.recover_threshold <= 1.0:
            raise ConfigurationError("recover_threshold must be in (0, 1]")
        if self.health_every < 1:
            raise ConfigurationError("health_every must be >= 1")
        for act in self.timeline:
            if act.feed not in self.feed_ids:
                raise ConfigurationError(
                    f"timeline act targets unknown feed {act.feed!r}"
                )
            if not 0 < act.round <= self.rounds:
                raise ConfigurationError(
                    f"timeline act round {act.round} outside 1..{self.rounds}"
                )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ConfigurationError(
                f"faults must be a FaultPlan or None, got {self.faults!r}"
            )

    @property
    def hot_feed(self) -> str:
        """The flash-crowded feed (first feed when no flash act)."""
        for act in self.timeline:
            if isinstance(act, FlashCrowd):
                return act.feed
        return self.feed_ids[0]


@dataclasses.dataclass(frozen=True)
class FeedSoakStats:
    """One feed's service-phase outcome."""

    feed: str
    delivered: int          # arrivals of service-phase items, all consumers
    p50: float              # staleness percentiles, in pull periods
    p99: float
    p999: float
    worst: float
    availability: float     # mean satisfied fraction over service rounds
    online: int             # final online audience
    rooted: int
    satisfied: int
    converged: bool
    #: Wall-clock staleness percentiles (the same distribution, in
    #: milliseconds via the profile's pull-period tick); only populated
    #: under a continuous time model, ``None`` on the rounds clock.
    p50_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    p999_ms: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class SoakSummary:
    """What the soak measured; a pure function of its :class:`SoakConfig`."""

    rounds: int
    service_rounds: int
    feeds: Tuple[FeedSoakStats, ...]
    availability: float                # mean over feeds and service rounds
    last_disruption_round: Optional[int]
    time_to_recover: Optional[int]     # rounds from last disruption, None = never
    hot_feed: str
    hot_reconverge_rounds: Optional[int]  # flash -> threshold again
    hot_p99_before: float              # service items published pre-flash
    hot_p99_after: float               # items published after re-convergence
    flash_joined: int
    exodus_departures: int
    faults_injected: int
    reuse: ReuseMetrics
    #: Which clock the soak ran on (``"rounds"`` or
    #: ``"continuous:<profile>"``); ms fields below are only populated
    #: for continuous soaks.
    time_model: str = "rounds"
    time_to_recover_ms: Optional[float] = None

    def feed_stats(self, feed: str) -> FeedSoakStats:
        for stats in self.feeds:
            if stats.feed == feed:
                return stats
        raise KeyError(feed)


# ----------------------------------------------------------------------
# the soak itself
# ----------------------------------------------------------------------


class ServiceSoak:
    """Runs one :class:`SoakConfig` to a :class:`SoakSummary`.

    Round loop (after the construction warmup): advance the shared
    clock, fire due timeline acts, inject faults, run one construction
    round per feed, then drive every feed's dissemination engine up to
    the current feed time and sample health.  The probe observes
    everything (soak phases, feed health, protocol events, faults) and —
    per the probe invariant — can never change the outcome.
    """

    def __init__(self, config: SoakConfig, probe: Probe = NULL_PROBE) -> None:
        self.config = config
        self.probe = probe
        self.system = MultiFeedSystem(
            feed_ids=list(config.feed_ids),
            consumer_count=config.consumer_count,
            seed=config.seed,
            subscribe_probability=config.subscribe_probability,
            source_fanout=config.source_fanout,
            total_fanout_range=config.total_fanout_range,
            max_latency=config.max_latency,
            oracle_factory=reuse_oracle_factory(config.reuse_bias),
        )
        streams = self.system.streams
        for overlay in self.system.overlays.values():
            overlay.probe = probe

        # Fault machinery — mirrors Simulation: installed whenever a
        # plan is present (a NullFaultPlan installs everything and is
        # bit-identical to installing nothing; pinned in tests).  A
        # member is a user by name, with a node in each feed it
        # subscribes to; the system's live view takes in flash-crowd
        # joiners as they arrive.
        system = self.system
        self.injector: Optional[FaultInjector] = None
        if config.faults is not None:
            self.injector = FaultInjector(
                system.members(), config.faults, streams.get("faults")
            )
            for feed in config.feed_ids:
                system.oracles[feed] = self.injector.gate(
                    system.algorithms[feed], streams.get(f"faults-oracle/{feed}")
                )

        # Continuous time model: one geo latency model for the whole
        # soak, keyed by consumer *name* (stable across feeds — one user
        # sits in one place no matter how many feeds they subscribe to).
        # Per-hop forwarding delays then follow real network distance
        # instead of the uniform draw, and the summary restates the
        # staleness percentiles in wall-clock milliseconds.
        time_model = parse_time_model(config.time_model)
        self.geo: Optional[GeoLatencyModel] = None
        self.geo_profile = None
        hop_delay_model = None
        if time_model.continuous:
            self.geo_profile = get_profile(time_model.profile)
            self.geo = GeoLatencyModel(
                self.geo_profile, derive_seed(config.seed, "soak-geo")
            )
            period_ms = self.geo_profile.pull_period_ms
            geo = self.geo

            # Pure in the edge (each engine caches it per edge, and
            # delivers down its overlay as a wave on that contract).
            def hop_delay_model(parent, child):
                return geo.one_way_ms(parent.name, child.name) / period_ms

        # Live dissemination: one bursty source + engine per feed.
        self.sources: Dict[str, FeedSource] = {}
        self.engines: Dict[str, LagOverDissemination] = {}
        for feed in config.feed_ids:
            source = FeedSource(
                feed_id=feed,
                process=bursty(
                    config.publish_rate,
                    streams.get(f"soak/publish/{feed}"),
                    burst_size=config.burst_size,
                ),
            )
            self.sources[feed] = source
            self.engines[feed] = LagOverDissemination(
                self.system.overlays[feed],
                source,
                streams.get(f"soak/net/{feed}"),
                pull_period=config.pull_period,
                hop_delay_model=hop_delay_model,
            )

        self._flash_rng = streams.get("soak/flash")
        self._exodus_rng = streams.get("soak/exodus")
        self._acts_by_round: Dict[int, List[SoakAct]] = {}
        for act in config.timeline:
            self._acts_by_round.setdefault(act.round, []).append(act)
        #: round -> flash joiners still to add (ramped arrivals).
        self._pending_joins: Dict[int, List[Tuple[str, int]]] = {}
        self._flash_count = 0

        # Measurement state.
        self._satisfied_series: Dict[str, List[float]] = {
            feed: [] for feed in config.feed_ids
        }
        #: Every feed at the recovery threshold again, after each timeline
        #: act and fault; and the hot feed again after its first flash.
        self.recovery = RecoveryTracker([])
        self.hot_recovery = RecoveryTracker([])
        self.flash_joined = 0
        self.exodus_departures = 0

    # ------------------------------------------------------------------
    # timeline application
    # ------------------------------------------------------------------

    def _apply_timeline(self, now: int) -> None:
        due_joins = self._pending_joins.pop(now, None)
        if due_joins:
            self._admit_joiners(due_joins)
        for act in self._acts_by_round.pop(now, ()):
            if isinstance(act, FlashCrowd):
                self._flash_crowd(now, act)
            elif isinstance(act, MassExodus):
                self._mass_exodus(now, act)
            elif isinstance(act, Rejoin):
                self._rejoin(now, act)
            else:  # pragma: no cover - config validation rejects unknowns
                raise TypeError(f"unhandled timeline act {act!r}")
            self.recovery.disruptions.append(now)

    def _flash_crowd(self, now: int, act: FlashCrowd) -> None:
        base = len(self.system.subscriber_names(act.feed, online_only=True))
        newcomers = max(1, round(base * (act.multiplier - 1.0)))
        ramp = max(1, act.ramp_rounds)
        share, remainder = divmod(newcomers, ramp)
        for offset in range(ramp):
            chunk = share + (1 if offset < remainder else 0)
            if not chunk:
                continue
            batch = [(act.feed, chunk)]
            if offset == 0:
                self._admit_joiners(batch)
            else:
                self._pending_joins.setdefault(now + offset, []).extend(batch)
        if act.feed == self.config.hot_feed and not self.hot_recovery.disruptions:
            self.hot_recovery.disruptions.append(now)
        if self.probe.enabled:
            self.probe.soak_phase("flash-crowd", act.feed, newcomers)

    def _admit_joiners(self, batches: List[Tuple[str, int]]) -> None:
        low, high = self.config.total_fanout_range
        patient = max(1, (self.config.max_latency + 1) // 2)
        for feed, count in batches:
            for _ in range(count):
                name = f"fc{self._flash_count}"
                self._flash_count += 1
                spec = NodeSpec(
                    latency=self._flash_rng.randint(
                        patient, self.config.max_latency
                    ),
                    fanout=self._flash_rng.randint(low, high),
                )
                created = self.system.join(name, {feed: spec})
                # Late arrivals need delivery logs before the first push
                # reaches them (see ensure_consumer).
                self.engines[feed].ensure_consumer(created[feed].node_id)
                self.flash_joined += 1

    def _mass_exodus(self, now: int, act: MassExodus) -> None:
        audience = self.system.subscriber_names(act.feed, online_only=True)
        count = min(len(audience), max(1, round(len(audience) * act.fraction)))
        leavers = self._exodus_rng.sample(audience, count) if count else []
        feed = self.system.members([act.feed])
        for name in leavers:
            if feed.take_down(name, graceful=act.graceful):
                self.exodus_departures += 1
        if self.probe.enabled:
            self.probe.soak_phase(
                "exodus" if act.graceful else "exodus-crash",
                act.feed,
                len(leavers),
            )

    def _rejoin(self, now: int, act: Rejoin) -> None:
        revived = 0
        feed = self.system.members([act.feed])
        for name in self.system.subscriber_names(act.feed):
            if feed.bring_up(name):
                revived += 1
        if self.probe.enabled:
            self.probe.soak_phase("rejoin", act.feed, revived)

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------

    def run(self) -> SoakSummary:
        config = self.config
        probe = self.probe
        observed = probe.enabled
        for _ in range(config.rounds):
            self.system.now += 1
            now = self.system.now
            if observed:
                started = time.perf_counter()
                probe.begin_round(now)
            self._apply_timeline(now)
            if self.injector is not None:
                fired = len(self.injector.fault_rounds)
                self.injector.inject(now)
                self.recovery.disruptions.extend(
                    self.injector.fault_rounds[fired:]
                )
            for feed in config.feed_ids:
                self.system.step_feed(feed)
            if now > config.warmup_rounds:
                self._disseminate(now)
            self._sample(now)
            if observed:
                probe.end_round(now, time.perf_counter() - started)
        return self.result()

    def _disseminate(self, now: int) -> None:
        feed_time = now * self.config.pull_period
        for feed in self.config.feed_ids:
            engine = self.engines[feed]
            engine.start_direct_pullers()
            engine.scheduler.run_until(feed_time)

    def _sample(self, now: int) -> None:
        in_service = now > self.config.warmup_rounds
        emit = self.probe.enabled and now % self.config.health_every == 0
        threshold = self.config.recover_threshold
        all_recovered = True
        for feed in self.config.feed_ids:
            # Read off the chain index's quality counters: O(1) per
            # feed, however large the audience.
            quality = measure(self.system.overlays[feed])
            satisfied_fraction = quality.satisfied_fraction
            if in_service:
                self._satisfied_series[feed].append(satisfied_fraction)
            if satisfied_fraction < threshold:
                all_recovered = False
            if feed == self.config.hot_feed:
                _observe_after(
                    self.hot_recovery, now, satisfied_fraction >= threshold
                )
            if emit:
                deliveries = sum(
                    c.received_count()
                    for c in self.engines[feed].consumers.values()
                )
                self.probe.feed_health(
                    feed,
                    quality.online,
                    quality.rooted,
                    quality.satisfied,
                    deliveries,
                )
        _observe_after(self.recovery, now, all_recovered)

    # ------------------------------------------------------------------
    # the summary
    # ------------------------------------------------------------------

    def result(self) -> SoakSummary:
        config = self.config
        hot_feed = config.hot_feed
        pull_period = config.pull_period
        service_start = config.warmup_rounds * pull_period
        flash = self.hot_recovery.disruptions
        hot_recovered = self.hot_recovery.recovered
        flash_time = flash[0] * pull_period if flash else None
        recover_time = (
            hot_recovered[0] * pull_period if hot_recovered else None
        )
        feeds: List[FeedSoakStats] = []
        availabilities: List[float] = []
        hot_before: List[float] = []
        hot_after: List[float] = []
        for feed in config.feed_ids:
            overlay = self.system.overlays[feed]
            engine = self.engines[feed]
            # Service-phase arrivals only: items published before the
            # warmup ended sat as backlog and would pollute the tail.
            values: List[float] = []
            split_hot = feed == hot_feed and flash_time is not None
            for consumer in engine.consumers.values():
                for batch, arrived_at in consumer.log:
                    stale = [
                        (arrived_at - item.published_at) / pull_period
                        for item in batch
                        if item.published_at >= service_start
                    ]
                    values.extend(stale)
                    # The before/after windows cut on *arrival* time —
                    # the operator's view: p99 of deliveries as they
                    # happened, pre-flash vs. post-recovery (a pre-flash
                    # item pulled as backlog by a newcomer belongs to
                    # the disruption, not the calm before it).
                    if split_hot:
                        if arrived_at < flash_time:
                            hot_before.extend(stale)
                        elif (
                            recover_time is not None
                            and arrived_at >= recover_time
                        ):
                            hot_after.extend(stale)
            percentiles = staleness_percentiles(values)
            series = self._satisfied_series[feed]
            availability = sum(series) / len(series) if series else 1.0
            availabilities.append(availability)
            # Final rooted/satisfied counts come from the chain index's
            # quality counters, as does is_converged().
            quality = measure(overlay)
            # Continuous clock: one pull period is pull_period_ms of
            # wall time, so the pull-period percentiles convert to ms
            # by a straight scale (the hop delays themselves already
            # followed the geo model during the run).
            ms_scale = (
                self.geo_profile.pull_period_ms
                if self.geo_profile is not None
                else None
            )
            feeds.append(
                FeedSoakStats(
                    feed=feed,
                    delivered=len(values),
                    p50=percentiles["p50"],
                    p99=percentiles["p99"],
                    p999=percentiles["p999"],
                    worst=max(values, default=0.0),
                    availability=availability,
                    online=quality.online,
                    rooted=quality.rooted,
                    satisfied=quality.satisfied,
                    converged=overlay.is_converged(),
                    p50_ms=(
                        percentiles["p50"] * ms_scale if ms_scale else None
                    ),
                    p99_ms=(
                        percentiles["p99"] * ms_scale if ms_scale else None
                    ),
                    p999_ms=(
                        percentiles["p999"] * ms_scale if ms_scale else None
                    ),
                )
            )
        disruptions = self.recovery.disruptions
        # Recovery from the last disruption, which covers the ones before.
        time_to_recover = self.recovery.series()[-1] if disruptions else None
        hot_reconverge = self.hot_recovery.time_to_recover()
        return SoakSummary(
            rounds=config.rounds,
            service_rounds=config.rounds - config.warmup_rounds,
            feeds=tuple(feeds),
            availability=(
                sum(availabilities) / len(availabilities)
                if availabilities
                else 1.0
            ),
            last_disruption_round=disruptions[-1] if disruptions else None,
            time_to_recover=time_to_recover,
            hot_feed=hot_feed,
            hot_reconverge_rounds=hot_reconverge,
            hot_p99_before=staleness_percentiles(hot_before)["p99"],
            hot_p99_after=staleness_percentiles(hot_after)["p99"],
            flash_joined=self.flash_joined,
            exodus_departures=self.exodus_departures,
            faults_injected=(
                self.injector.injected if self.injector is not None else 0
            ),
            reuse=self.system.reuse_metrics(),
            time_model=config.time_model,
            time_to_recover_ms=(
                time_to_recover * self.geo_profile.pull_period_ms
                if time_to_recover is not None
                and self.geo_profile is not None
                else None
            ),
        )


def _observe_after(tracker: RecoveryTracker, now: int, whole: bool) -> None:
    """Feed ``tracker`` round ``now``'s reading unless one of its
    disruptions landed this round: a soak recovers strictly after."""
    if tracker.disruptions[-1:] != [now]:
        tracker.observe(now, whole)


def run_soak(config: SoakConfig) -> SoakSummary:
    """Run one soak to its summary (module-level: poolable as a
    :class:`repro.par.Task` worker; the summary is picklable and
    value-equal across processes)."""
    return ServiceSoak(config).run()
