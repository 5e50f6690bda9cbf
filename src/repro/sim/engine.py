"""A small discrete-event engine.

The construction protocol runs on a synchronous round clock
(:mod:`repro.sim.runner`), but the substrates — the message-passing
network, the DHT, the gossip layer, feed dissemination — are naturally
event-driven: messages arrive after heterogeneous latencies, pulls fire
periodically, items publish at random times.  This engine provides the
classic timestamp-ordered event queue those substrates schedule against.

No wall-clock, no threads: time is a float the engine advances from event
to event, so runs are fully deterministic given deterministic callbacks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.core.errors import ConfigurationError


class EventHandle:
    """Returned by :meth:`EventScheduler.schedule`; allows cancellation.

    The event carries its callback's arguments, so firing it is
    ``callback(*args)`` with no closure allocated per scheduled event.
    """

    __slots__ = (
        "time", "sequence", "callback", "args", "cancelled", "fired", "_scheduler"
    )

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        scheduler: Optional["EventScheduler"] = None,
    ):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired).

        Keeps the owning scheduler's live pending counter exact:
        cancelling an already-cancelled or already-fired handle is a
        no-op, so the counter is decremented at most once per event.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._pending -= 1


class EventScheduler:
    """Timestamp-ordered event execution with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: The latest time a firing callback may treat as already
        #: reached: :meth:`run_until`'s bound, or under :meth:`step` the
        #: firing event's own time, so a loop of ``step()`` calls never
        #: runs ahead.  Feed dissemination delivers hops that land by the
        #: horizon in place instead of scheduling them.
        self.horizon: float = 0.0
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._fired = 0
        self._pending = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` from now."""
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule at an absolute time (must not be in the past).

        The event carries exactly ``time``, not ``now + (time - now)``:
        a caller that derives a timestamp by its own arithmetic (the
        continuous engine's virtual ticks) gets that float back.
        """
        if time < self.now:
            raise ConfigurationError(
                f"cannot schedule into the past ({time} < {self.now})"
            )
        sequence = next(self._sequence)
        handle = EventHandle(time, sequence, callback, args, self)
        heapq.heappush(self._queue, (time, sequence, handle))
        self._pending += 1
        return handle

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events.

        O(1): a live counter maintained on schedule/cancel/fire, not a
        scan of the heap (cancelled entries linger there until popped).
        """
        return self._pending

    @property
    def fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or ``None`` if the queue is empty."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Fire the next event; returns ``False`` if none remained."""
        while self._queue:
            _, _, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self.now = self.horizon = handle.time
            handle.fired = True
            self._pending -= 1
            self._fired += 1
            handle.callback(*handle.args)
            return True
        return False

    def run_until(self, time: float, max_events: int = 10_000_000) -> None:
        """Fire every event with timestamp <= ``time``; advance now to it.

        One pass over the heap with :meth:`peek_time`'s cancelled-skip,
        the time test and :meth:`step`'s fire inlined: the same events
        fire in the same order as a ``peek_time()``/``step()`` loop.
        The horizon is ``time`` throughout.
        """
        self.horizon = time
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        while queue:
            at, _, handle = queue[0]
            if handle.cancelled:
                pop(queue)
                continue
            if at > time:
                break
            pop(queue)
            self.now = at
            handle.fired = True
            self._pending -= 1
            self._fired += 1
            handle.callback(*handle.args)
            fired += 1
            if fired > max_events:
                raise ConfigurationError(
                    f"run_until({time}) exceeded {max_events} events; "
                    "likely a self-rescheduling loop with zero delay"
                )
        self.now = max(self.now, time)

    def run(self, max_events: int = 10_000_000) -> None:
        """Fire all events until the queue drains (bounded by max_events)."""
        fired = 0
        while self.step():
            fired += 1
            if fired > max_events:
                raise ConfigurationError(
                    f"run() exceeded {max_events} events; "
                    "likely an unbounded event cascade"
                )
