"""The continuous-time construction engine.

The paper's asynchrony extension (§5.3) models heterogeneous interaction
durations as "busy for k rounds" — a bolt-on over the synchronous round
clock, which can only ever report staleness in hops.  This module
promotes the :class:`~repro.sim.engine.EventScheduler` to the *primary*
clock: every consumer acts on its own timeline, and how long each action
takes is no longer a uniform draw but the sum of the real network legs
it exercised —

* a **construction step** by a parentless node costs one oracle-contact
  round trip (node ↔ the directory's PoP) plus, when the step ended in
  an attach, the attach-handshake round trip to the chosen parent;
* a **maintenance check** is local and free (observing one's own delay
  needs no network), so a parented node's self-checks fall on *virtual
  ticks*, one round tick apart from its first; a check that ends in a
  detach (or a move) pays the handshake round trip to the forsaken
  parent before the node can act again.

**Settled nodes sleep.**  Only the ticks at which the rule could act are
events.  A parented node whose self-check left it where it was and
:meth:`~repro.core.protocol.ConstructionAlgorithm.settled` goes
*dormant*: it holds no queue entry, and the engine remembers when that
last check ran (settledness is read off the chain index's unsettled
column).  The chain index reports every node whose chain metadata,
parent or liveness changes (a watch set,
:meth:`~repro.core.index.ChainIndex.watch`); the engine drains it after
every fired action and after the boundary's churn and fault phases, and
a dormant node found parentless or no longer settled is woken at its
next virtual tick — the timestamp the once-per-tick poll would have
reached, by the same repeated float addition.  Events with distinct
timestamps order by time alone, so every action that does anything
fires when and in the order it did under polling; what is gone are the
checks that found nothing (nine in ten of all events on a large build).
Only a tie between two *different* nodes' timestamps could tell the two
apart (``docs/TIMING.md`` §4).

Per-edge latencies come from a seeded :class:`~repro.locality.geo.\
GeoLatencyModel` — region/PoP matrix, last-mile terms, all in wall-clock
milliseconds — so a consumer behind a trans-continental path genuinely
interacts less often than a same-metro one, which is exactly the
asynchrony observation the paper reports, now with geographic teeth.

**Round-domain bookkeeping is the rounds clock's own.**  The engine is
a :class:`~repro.sim.runner.Simulation` whose act phase is events:
its :meth:`~ContinuousSimulation.run_round` is a periodic *boundary
tick* every ``profile.round_ms`` milliseconds, which fires the actions
due before it and then runs the base round — churn, the oracle's
per-round refresh, fault injection, measurement — on the same round
counter.  Everything round-keyed (fault plans, recovery metrics, health
timeseries, staleness attribution) therefore works verbatim, and the
engine adds the wall-clock view on top: ``sim_time_ms``, event counts,
millisecond staleness percentiles and ``time_to_recover_ms`` on the
:class:`~repro.sim.runner.SimulationResult`.

**Determinism.**  The engine introduces no new RNG draws at all: action
durations are pure functions of the seeded latency model, the event
queue breaks ties FIFO, and initial/rejoin scheduling walks the roster
in id order — so a continuous run is bit-identical across repeats and
across :mod:`repro.par` pooled workers, and rounds mode (which never
constructs this class) is bit-identical to pre-continuous behavior.
Both pins live in ``tests/test_continuous_time.py``; the model and a
worked hop-to-ms example are documented in ``docs/TIMING.md``.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from typing import List, Optional

from repro.core.errors import ConfigurationError
from repro.core.node import Node
from repro.feeds.staleness import staleness_percentiles
from repro.locality.geo import GeoLatencyModel, get_profile
from repro.obs.probe import Probe
from repro.sim.engine import EventScheduler
from repro.sim.runner import Simulation, SimulationConfig, SimulationResult
from repro.sim.rng import derive_seed
from repro.sim.timemodel import parse_time_model
from repro.workloads.base import Workload

#: Floor on any action duration, so a zero-latency profile can never
#: produce a same-timestamp self-rescheduling loop.
MIN_ACTION_MS = 0.05

#: ``_last_check`` value of a node that is not dormant.
_AWAKE = -1.0


class ContinuousSimulation(Simulation):
    """One construction run on the continuous clock.

    A :class:`~repro.sim.runner.Simulation` (same streams, same oracle
    wiring, same fault plan, same observability taps) whose act phase is
    events: per-node actions fire on their own timestamps between round
    boundaries, and :meth:`run_round` is the boundary tick.
    """

    def __init__(
        self,
        workload: Workload,
        config: SimulationConfig,
        oracle_factory=None,
        probe: Optional[Probe] = None,
    ) -> None:
        model = parse_time_model(config.time_model)
        if not model.continuous:
            raise ConfigurationError(
                "ContinuousSimulation needs a continuous time model; "
                f"got {config.time_model!r}"
            )
        super().__init__(
            workload, config, oracle_factory=oracle_factory, probe=probe
        )
        self.profile = get_profile(model.profile)
        # The latency substrate hangs off its own derived seed, so geo
        # placement can never perturb (or be perturbed by) the protocol
        # streams — the same dedicated-stream rule repro.faults follows.
        self.geo = GeoLatencyModel(
            self.profile, derive_seed(config.seed, "geo")
        )
        self.scheduler = EventScheduler()
        self.round_ms = self.profile.round_ms
        #: Nodes with a queued (not yet fired) action event.
        self._queued: set = set()
        #: Per node id, the time of the self-check that sent the node
        #: dormant (:data:`_AWAKE` for everybody else).
        self._last_check = array("d")
        #: Ids the chain index touched since the last drain.
        self._touched = self.overlay.chain_index.watch()
        #: Ids whose membership or liveness changed since the last
        #: idle-actor scan (at first: everyone online).
        self._liveness = self.overlay.watch_liveness()
        #: Whether the first boundary queued the first cohort.
        self._cohort_queued = False
        #: The algorithm's unsettled column, resolved at each boundary.
        self._unsettled = self.algorithm.unsettled_column()

    # -- scheduling -----------------------------------------------------

    def _schedule_action(self, node: Node, delay_ms: float) -> None:
        self._queued.add(node)
        self.scheduler.schedule(max(MIN_ACTION_MS, delay_ms), self._act, node)

    def _schedule_idle_actors(self) -> None:
        """Queue a first action for every online consumer without one.

        Covers the initial population, churn rejoins and late joiners
        alike.  Walks the candidates in id order and staggers each node's
        first action by its (deterministic) one-way latency to the
        directory, folded into one round tick — so a fresh cohort does
        not act in one synchronized stampede, and nearby nodes get
        going sooner than far ones.

        Only membership and liveness changes make idle actors, so the
        scan visits the ids of the overlay's liveness feed alone, in id
        order — the whole online roster for the first cohort — and a
        boundary with an empty feed (every boundary of a static build
        after the first) has none.
        """
        overlay = self.overlay
        fed = self._liveness
        if not fed:
            return
        nodes = overlay._nodes
        last_check = self._last_check
        # One cell per id ever handed out (a negative count extends by
        # nothing).
        last_check.extend([_AWAKE] * (overlay.store.capacity - len(last_check)))
        for node_id in sorted(fed):
            node = nodes.get(node_id)
            if (
                node is None
                or not node.online
                or node in self._queued
                or last_check[node_id] >= 0
            ):
                continue
            offset = self.geo.one_way_ms(node_id, -1) % self.round_ms
            self._schedule_action(node, offset)
        fed.clear()

    def _wake_touched(self) -> None:
        """Wake every dormant node the chain index touched that now has
        something to do: it lost its parent (displaced, orphaned, gone
        offline) or its rule is no longer settled.

        Called between actions, never from inside the index hooks, so a
        node displaced and re-attached within one action is judged on
        where it ended up.  The wake lands on the node's next virtual
        tick after now: ``<=`` because the tick that coincides with a
        boundary fired (as a no-op) before the boundary's churn ran.
        A node that departed is woken too — into the event that
        dissolves at the timestamp it always did, so a rejoin before
        then still finds it queued.
        """
        touched = self._touched
        if not touched:
            return
        last_check = self._last_check
        known = len(last_check)
        nodes = self.overlay._nodes
        unsettled = self._unsettled
        now = self.scheduler.now
        round_ms = self.round_ms
        for node_id in sorted(touched):
            if node_id >= known or last_check[node_id] < 0:
                continue  # not dormant: it has its own event coming
            node = nodes.get(node_id)
            if node is None:
                # Taken offline and removed for good since the last drain.
                last_check[node_id] = _AWAKE
                continue
            if node.parent is not None and not unsettled[node_id]:
                continue
            # Repeated addition, not a multiplication: these are the
            # floats the chain of ``now + round_ms`` reschedules made.
            tick = last_check[node_id] + round_ms
            while tick <= now:
                tick += round_ms
            last_check[node_id] = _AWAKE
            self._queued.add(node)
            self.scheduler.schedule_at(tick, self._act, node)
        touched.clear()

    def check_schedule(self) -> None:
        """Cross-check the queue bookkeeping; raises ``RuntimeError``.

        Test/debug hook, meaningful right after a boundary: every online
        consumer either holds exactly one queued action or is dormant,
        parented and settled.
        """
        if self.scheduler.pending != len(self._queued):
            raise RuntimeError(
                f"{self.scheduler.pending} pending events for "
                f"{len(self._queued)} queued nodes"
            )
        settled = self.algorithm.settled
        last_check = self._last_check
        for node in self.overlay.online_consumers:
            node_id = node.node_id
            dormant = node_id < len(last_check) and last_check[node_id] >= 0
            if dormant == (node in self._queued):
                raise RuntimeError(
                    f"{node!r} is "
                    + ("queued and dormant" if dormant else "neither queued nor dormant")
                )
            if dormant and (node.parent is None or not settled(node)):
                raise RuntimeError(f"dormant {node!r} has something to do")

    # -- the per-node action event --------------------------------------

    def _act(self, node: Node) -> None:
        """One node acts at the current scheduler time."""
        self._queued.discard(node)
        if node not in self.overlay or not node.online:
            # Departed (churn/crash) mid-flight: the action dissolves.
            # A rejoin is re-queued by the boundary's idle-actor scan that
            # its ``go_online`` triggers.
            return
        algorithm = self.algorithm
        timings_add = self.timings.add
        geo = self.geo
        started = time.perf_counter()
        old_parent = node.parent
        if old_parent is not None:
            algorithm.maintain(node)
            timings_add("maintain", time.perf_counter() - started)
            if node.parent is not old_parent:
                # Detached or moved: pay the handshake to the forsaken
                # parent (plus the new one's, if the move re-attached).
                delay = geo.rtt_ms(node.node_id, old_parent.node_id)
                if node.parent is not None:
                    delay += geo.rtt_ms(node.node_id, node.parent.node_id)
            elif not self._unsettled[node.node_id]:
                # Nothing to do until the chain changes: sleep, and let
                # the index wake us (:meth:`_wake_touched`).
                delay = None
            else:
                # The self-check is local; next one in a round tick.
                delay = self.round_ms
        else:
            algorithm.step(node)
            timings_add("step", time.perf_counter() - started)
            # Every construction step starts with an oracle contact
            # (timeout bookkeeping included); an attach adds the
            # handshake round trip to the accepting parent.
            delay = geo.oracle_rtt_ms(node.node_id)
            if node.parent is not None:
                delay += geo.rtt_ms(node.node_id, node.parent.node_id)
        if delay is None:
            self._last_check[node.node_id] = self.scheduler.now
        else:
            self._schedule_action(node, delay)
        self._wake_touched()

    # -- the boundary tick ----------------------------------------------

    def run_round(self) -> None:
        """One boundary tick: fire every action up to the next round
        boundary, then run the round-domain phases (churn / oracle /
        faults / measure) of :meth:`Simulation.run_round
        <repro.sim.runner.Simulation.run_round>`."""
        self._unsettled = self.algorithm.unsettled_column()
        if not self._cohort_queued:
            self._cohort_queued = True
            self._schedule_idle_actors()  # the first cohort
        self.scheduler.run_until((self.now + 1) * self.round_ms)
        super().run_round()
        # Whoever the boundary's churn and faults unsettled wakes here;
        # rejoined / newly admitted consumers enter the event loop.
        self._wake_touched()
        self._schedule_idle_actors()

    def _act_phase(self) -> None:
        """The events between boundaries did the acting; the boundary
        only injects the plan's faults."""
        self._inject_faults()

    # -- wall-clock staleness -------------------------------------------

    def staleness_ms_series(self) -> List[float]:
        """Worst-case wall-clock staleness per rooted online consumer.

        The continuous analogue of the paper's ``DelayAt * T`` bound: a
        full pull-period wait at the source's direct child, plus the
        summed one-way transit legs down the consumer's overlay path.
        Deterministic given the overlay and the seeded latency model.
        """
        overlay = self.overlay
        out: List[float] = []
        for node in overlay.online_consumers:
            if not overlay.is_rooted(node):
                continue
            ms = self.profile.pull_period_ms
            cursor = node
            while cursor.parent is not None:
                ms += self.geo.one_way_ms(
                    cursor.parent.node_id, cursor.node_id
                )
                cursor = cursor.parent
            out.append(ms)
        return out

    def result(self) -> SimulationResult:
        """The round-domain result, extended with the wall-clock view."""
        base = super().result()
        series = self.staleness_ms_series()
        percentiles = (
            staleness_percentiles(series, qs=(50.0, 99.0))
            if series
            else {"p50": None, "p99": None}
        )
        return dataclasses.replace(
            base,
            time_model=self.config.time_model,
            sim_time_ms=self.scheduler.now,
            events_fired=self.scheduler.fired,
            staleness_ms_p50=percentiles["p50"],
            staleness_ms_p99=percentiles["p99"],
            time_to_recover_ms=(
                base.time_to_recover * self.round_ms
                if base.time_to_recover is not None
                else None
            ),
        )


def hop_delay_from_geo(
    geo: GeoLatencyModel, pull_period_ms: float
):
    """A dissemination ``hop_delay_model`` serving real geo latencies.

    Returns a callable ``(parent, child) -> delay in units of T`` for
    :class:`~repro.feeds.dissemination.LagOverDissemination`, so feed
    transit legs — and therefore the :mod:`repro.obs` delivery spans —
    carry the substrate's per-edge milliseconds instead of uniform
    draws.  The engine clamps the value into ``(0, 1]`` per its +1-hop
    accounting contract.
    """

    def model(parent: Node, child: Node) -> float:
        return geo.one_way_ms(parent.node_id, child.node_id) / pull_period_ms

    return model
