"""The per-delivery path against reference loops.

* :meth:`EventScheduler.run_until` is one inlined pass over the heap; it
  must behave exactly like the ``peek_time()``/``step()`` loop kept
  below — same fire order, ``now``, ``pending``, ``fired`` and the same
  ``max_events`` error — under any interleaving of ``schedule``,
  ``schedule_at`` (with ties), ``cancel`` (double, after fire) and
  ``run_until``.
* :meth:`FeedConsumer.deliver` stores a batch that starts past its
  cursor without a membership test per item; it must equal the
  item-by-item reference loop on any sequence of batches, each in
  strictly ascending ``seq`` order (the contract every pull and push
  keeps), whatever order the batches arrive in.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import NodeSpec
from repro.core.errors import ConfigurationError
from repro.core.tree import Overlay
from repro.feeds.client import Arrival, FeedConsumer
from repro.feeds.dissemination import LagOverDissemination
from repro.feeds.items import FeedItem
from repro.feeds.source import FeedSource, periodic, poisson
from repro.locality.geo import GeoLatencyModel, get_profile
from repro.obs.trace import SpanRecorder
from repro.sim.churn import ChurnConfig
from repro.sim.continuous import hop_delay_from_geo
from repro.sim.engine import EventScheduler
from repro.sim.runner import Simulation, SimulationConfig
from repro.workloads import make

# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------


def reference_run_until(
    scheduler: EventScheduler, time: float, max_events: int
) -> None:
    """``run_until`` as a loop over the public ``peek_time``/``step``."""
    fired = 0
    while True:
        next_time = scheduler.peek_time()
        if next_time is None or next_time > time:
            break
        scheduler.step()
        fired += 1
        if fired > max_events:
            raise ConfigurationError(
                f"run_until({time}) exceeded {max_events} events; "
                "likely a self-rescheduling loop with zero delay"
            )
    scheduler.now = max(scheduler.now, time)


class Driver:
    """Replays one operation script against one scheduler.

    Every event logs its label when it fires and may spawn children (at
    a tie-prone delay), so events are also scheduled from inside a run.
    """

    DELAYS = (0.0, 0.5, 1.0, 2.5)

    def __init__(self, run_until) -> None:
        self.scheduler = EventScheduler()
        self.run_until = run_until
        self.log: List[int] = []
        self.handles = []

    def _fire(self, label: int, spawn: int) -> None:
        self.log.append(label)
        for k in range(spawn):
            self._add(self.DELAYS[(label + k) % len(self.DELAYS)], spawn - 1)

    def _add(self, delay: float, spawn: int, absolute: bool = False) -> None:
        label = len(self.handles)
        if absolute:
            handle = self.scheduler.schedule_at(
                self.scheduler.now + delay, self._fire, label, spawn
            )
        else:
            handle = self.scheduler.schedule(delay, self._fire, label, spawn)
        self.handles.append(handle)

    def apply(self, op) -> object:
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            self._add(self.DELAYS[op[1]], op[2], absolute=kind == "schedule_at")
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        else:
            try:
                self.run_until(self.scheduler, self.scheduler.now + op[1], op[2])
            except ConfigurationError as error:
                return str(error)
        return None

    def state(self) -> tuple:
        scheduler = self.scheduler
        return (
            list(self.log),
            scheduler.now,
            scheduler.pending,
            scheduler.fired,
            [(h.cancelled, h.fired) for h in self.handles],
        )


operations = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["schedule", "schedule_at"]),
            st.integers(0, len(Driver.DELAYS) - 1),
            st.integers(0, 2),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(
            st.just("run_until"),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]),
            st.sampled_from([0, 1, 3, 10_000]),
        ),
    ),
    max_size=40,
)


class TestRunUntilEqualsReferenceLoop:
    @given(script=operations)
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving(self, script):
        fast = Driver(
            lambda scheduler, time, max_events: scheduler.run_until(
                time, max_events=max_events
            )
        )
        reference = Driver(reference_run_until)
        for op in script:
            assert fast.apply(op) == reference.apply(op)
            assert fast.state() == reference.state()

    def test_max_events_error_fires_the_same_prefix(self):
        fast = Driver(
            lambda scheduler, time, max_events: scheduler.run_until(
                time, max_events=max_events
            )
        )
        reference = Driver(reference_run_until)
        script = [("schedule", 0, 2), ("schedule", 0, 2), ("run_until", 0.0, 1)]
        results = [(fast.apply(op), reference.apply(op)) for op in script]
        error, expected = results[-1]
        assert error is not None and error == expected
        assert fast.state() == reference.state()
        assert len(fast.log) == 2

    def test_events_carry_their_arguments(self):
        scheduler = EventScheduler()
        handle = scheduler.schedule(1.0, print, "a", "b")
        assert handle.callback is print
        assert handle.args == ("a", "b")


# ----------------------------------------------------------------------
# FeedConsumer.deliver
# ----------------------------------------------------------------------

ITEMS = [
    FeedItem(seq=seq, title=f"i{seq}", published_at=seq * 0.5)
    for seq in range(1, 25)
]


class ReferenceConsumer:
    """A consumer that is nothing but a ``seq -> Arrival`` dict and a
    cursor, for :func:`reference_deliver` to write into."""

    def __init__(self) -> None:
        self.arrivals: Dict[int, Arrival] = {}
        self.last_seen_seq = 0


def reference_deliver(
    consumer: ReferenceConsumer, items, now
) -> List[FeedItem]:
    """The item-by-item loop: a membership test for every item."""
    fresh = []
    for item in items:
        if item.seq in consumer.arrivals:
            continue
        consumer.arrivals[item.seq] = Arrival(item=item, arrived_at=now)
        fresh.append(item)
    if fresh:
        consumer.last_seen_seq = max(consumer.last_seen_seq, fresh[-1].seq)
    return fresh


#: One batch: a strictly ascending run of seqs (a pull since some cursor,
#: or a push forwarding such a run), possibly with gaps and possibly
#: repeating or predating what the consumer already holds.
batches = st.lists(
    st.sets(st.integers(1, len(ITEMS)), max_size=8).map(sorted), max_size=12
)


class TestDeliverEqualsReferenceLoop:
    @given(batches=batches)
    @settings(max_examples=300, deadline=None)
    def test_any_batch_order(self, batches):
        fast, reference = FeedConsumer(7), ReferenceConsumer()
        for step, seqs in enumerate(batches):
            items = [ITEMS[seq - 1] for seq in seqs]
            now = 10.0 + step
            assert fast.deliver(items, now) == reference_deliver(
                reference, items, now
            )
            assert fast.arrivals == reference.arrivals
            assert fast.last_seen_seq == reference.last_seen_seq
            assert fast.last_seen_seq == max(fast.arrivals, default=0)

    def test_old_parent_push_after_newer_pull(self):
        consumer = FeedConsumer(1)
        assert consumer.deliver(ITEMS[4:6], 3.0) == ITEMS[4:6]
        # A late push from a former parent carries older items and one
        # the consumer already holds: only the older ones are new, and
        # the cursor does not move back.
        late = ITEMS[2:5]
        assert consumer.deliver(late, 4.0) == ITEMS[2:4]
        assert consumer.last_seen_seq == ITEMS[5].seq
        assert consumer.arrivals[ITEMS[4].seq].arrived_at == 3.0

    def test_empty_batch_is_a_no_op(self):
        consumer = FeedConsumer(1)
        assert consumer.deliver([], 1.0) == []
        assert consumer.last_seen_seq == 0
        # Nor after a delivery: an empty pull folds nothing from the log.
        consumer.deliver(ITEMS[:2], 2.0)
        assert consumer.deliver([], 3.0) == []
        assert consumer._folded == 0 and not consumer._arrivals
        assert consumer.last_seen_seq == ITEMS[1].seq

    def test_arrivals_is_a_read_only_view_of_the_log(self):
        consumer = FeedConsumer(1)
        consumer.deliver(ITEMS[:2], 2.0)
        with pytest.raises(TypeError):
            consumer.arrivals[99] = Arrival(item=ITEMS[2], arrived_at=3.0)
        assert consumer.received_count() == len(consumer.arrivals) == 2

    def test_worst_staleness(self):
        consumer = FeedConsumer(1)
        assert consumer.worst_staleness() == 0.0
        consumer.deliver(ITEMS[:3], 4.0)
        assert consumer.worst_staleness() == pytest.approx(3.5)


# ----------------------------------------------------------------------
# the dissemination wave
# ----------------------------------------------------------------------


def step_until(scheduler: EventScheduler, time: float) -> None:
    """The heap-only reference for ``run_until(time)``: one event per
    ``step()``, so the horizon is always the firing event's own time and
    every hop of a delivery goes through the heap."""
    while (at := scheduler.peek_time()) is not None and at <= time:
        scheduler.step()
    scheduler.run_until(time)  # fires nothing; moves the clock to time


def wave_run(windowed: bool, seed: int, profile: str):
    """Dissemination over an overlay that churns and re-parents between
    one-period windows, with geo hop delays; returns what it delivered."""
    simulation = Simulation(
        make("Rand", size=60, seed=seed),
        SimulationConfig(
            algorithm="hybrid",
            seed=seed,
            churn=ChurnConfig(leave_probability=0.03, rejoin_probability=0.3),
        ),
    )
    geo_profile = get_profile(profile)
    tracer = SpanRecorder(capacity=1 << 20)
    engine = LagOverDissemination(
        simulation.overlay,
        FeedSource(process=poisson(3.0, random.Random(seed))),
        random.Random(seed),
        hop_delay_model=hop_delay_from_geo(
            GeoLatencyModel(geo_profile, seed), geo_profile.pull_period_ms
        ),
        tracer=tracer,
    )
    # Pushes that a node's former parent sent before the overlay changed
    # under it, counted as they land.
    late = []
    deliver = engine._deliver_push

    def watched(child, items, parent_id, sent_at):
        parent = child.parent
        if parent is None or parent.node_id != parent_id:
            late.append(child.node_id)
        deliver(child, items, parent_id, sent_at)

    engine._deliver_push = watched
    for window in range(1, 80):
        simulation.run_round()
        engine.start_direct_pullers()
        if windowed:
            engine.scheduler.run_until(float(window))
        else:
            step_until(engine.scheduler, float(window))
    logs = {
        node_id: [
            ([item.seq for item in batch], arrived_at)
            for batch, arrived_at in consumer.log
        ]
        for node_id, consumer in engine.consumers.items()
    }
    spans = {
        (s.trace_id, s.node, s.parent, s.hop, s.sent_at, s.recv_at)
        for s in tracer.spans
    }
    assert len(spans) == len(tracer.spans)
    return engine, logs, spans, late


class TestWaveEqualsHeap:
    """With a per-edge ``hop_delay_model``, a pull's fresh items travel
    down the frozen overlay as one wave inside a ``run_until`` window.
    Every consumer must receive the same batches in the same order at
    the same float times as when each hop is its own heap event."""

    @pytest.mark.parametrize(
        "seed,profile", [(1, "geo-3region"), (4, "metro"), (7, "geo-5region")]
    )
    def test_windows_equal_a_step_loop(self, seed, profile):
        wave, wave_logs, wave_spans, late = wave_run(True, seed, profile)
        heap, heap_logs, heap_spans, heap_late = wave_run(False, seed, profile)
        assert wave_logs == heap_logs
        assert wave.pushes == heap.pushes > 0
        assert wave.pulls == heap.pulls > 0
        assert wave_spans == heap_spans
        assert {
            node_id: consumer.arrivals
            for node_id, consumer in wave.consumers.items()
        } == {
            node_id: consumer.arrivals
            for node_id, consumer in heap.consumers.items()
        }
        # The overlay moved under pushes still in flight, and the wave
        # took most hops off the heap.
        assert late and late == heap_late
        assert wave.scheduler.fired * 2 < heap.scheduler.fired

    def test_a_late_push_from_a_former_parent_lands_first(self):
        """c moves from a to b while a's push to c is on the heap; b's
        next pull lands at c after that push, so the wave must not
        deliver it in place ahead of it."""
        seed = 9
        draws = random.Random(seed)  # start_direct_pullers: a, then b
        pull_a, pull_b = draws.uniform(0, 1), draws.uniform(0, 1)
        assert pull_b < pull_a
        margin = (pull_a - pull_b) / 4
        units = {
            ("a", "c"): 1 + pull_b + margin - pull_a,  # lands after 1 + pull_b
            ("b", "c"): 2 * margin,
        }

        def run(windowed):
            overlay = Overlay(source_fanout=2)
            a, b, c = (
                overlay.add_consumer(NodeSpec(latency=5, fanout=2), name)
                for name in "abc"
            )
            overlay.attach(a, overlay.source)
            overlay.attach(b, overlay.source)
            overlay.attach(c, a)
            engine = LagOverDissemination(
                overlay,
                FeedSource(process=periodic(0.05)),
                random.Random(seed),
                hop_delay_model=lambda p, q: units[(p.name, q.name)],
            )
            advance = engine.scheduler.run_until if windowed else (
                lambda time: step_until(engine.scheduler, time)
            )
            engine.start_direct_pullers()
            advance(1.0)
            overlay.detach(c)
            overlay.attach(c, b)
            engine.start_direct_pullers()
            advance(2.0)
            return [
                ([item.seq for item in batch], arrived_at)
                for batch, arrived_at in engine.consumers[c.node_id].log
            ]

        log = run(windowed=True)
        assert log == run(windowed=False)
        (from_a, late_at), (from_b, _) = log
        assert late_at > 1.0 and from_a[0] == 1 and from_b[0] == from_a[-1] + 1

    def test_step_never_runs_ahead(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule_at(
            2.5, lambda: seen.append((scheduler.now, scheduler.horizon))
        )
        scheduler.step()
        assert seen == [(2.5, 2.5)]
        scheduler.schedule_at(
            3.0, lambda: seen.append((scheduler.now, scheduler.horizon))
        )
        scheduler.run_until(7.0)
        assert seen[-1] == (3.0, 7.0)
