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

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.feeds.client import Arrival, FeedConsumer
from repro.feeds.items import FeedItem
from repro.sim.engine import EventScheduler

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


def reference_deliver(consumer: FeedConsumer, items, now) -> List[FeedItem]:
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
        fast, reference = FeedConsumer(7), FeedConsumer(7)
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

    def test_worst_staleness(self):
        consumer = FeedConsumer(1)
        assert consumer.worst_staleness() == 0.0
        consumer.deliver(ITEMS[:3], 4.0)
        assert consumer.worst_staleness() == pytest.approx(3.5)
