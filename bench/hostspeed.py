"""How fast is the host right now?  A frozen interpreter kernel.

This sandbox's CPU runs in speed states a factor of two apart.  They
flip every 10 ms to several seconds, and slow stretches can outlast a
whole invocation, so no minimum or median over the handful of passes
that fit in one invocation removes them (``README.md``, *Calibrated
seconds*, has the measurements: on a slow host the spread over ten
seeds of the minimum over cycles is 0.12-0.41 on every workload, that
of the calibrated figure 0.02-0.11).

What does: time a small fixed piece of interpreter work every
``INTERVAL_S`` of wall time while the measured work runs, and report
each stretch between two such samples in **calibrated seconds**:

    calibrated = measured * (REFERENCE_S / kernel time measured beside it)

that is, the time the stretch would have taken had the host run the
whole time at the speed at which the kernel takes ``REFERENCE_S``.

The samples come from an interval timer (``SIGALRM``), so they need no
hook inside the simulator: Python runs the handler between two
bytecodes of whatever the main thread is executing, set-up and run
alike.  The handler touches no simulator state, and its own time is
charged to nothing.

The kernel is part of the unit.  Changing :func:`kernel_s`,
``REFERENCE_S`` or ``INTERVAL_S`` rescales every time metric of the
benchmark, so none may change in a PR that claims a gain.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: The kernel's duration on this box in its fast state; calibrated
#: seconds therefore read like this box's undisturbed wall seconds.
REFERENCE_S = 170e-6
#: Wall time between two samples while a pass runs.
INTERVAL_S = 0.020


class _Box:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def get(self) -> int:
        return self.value


_BOXES = [_Box(i) for i in range(64)]


def kernel_s(perf=time.perf_counter) -> float:
    """Seconds the frozen kernel took just now (best of two): method
    calls, float arithmetic, list indexing and dict stores, the mix the
    simulator's round loop is made of."""
    best = float("inf")
    for _ in range(2):
        start = perf()
        acc = 0.0
        table = {}
        for i in range(1500):
            box = _BOXES[i & 63]
            acc += box.get() * 0.5
            table[i & 255] = acc
        elapsed = perf() - start
        if elapsed < best:
            best = elapsed
    return best


class SpeedSampler:
    """Times the kernel every ``INTERVAL_S`` while started, and restates
    a stretch of measured work at the reference host speed."""

    def __init__(self) -> None:
        #: ``(handler entered, kernel seconds, handler left)`` per sample.
        self.samples: List[Tuple[float, float, float]] = []
        self._unread = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.samples.append((entered, kernel_s(), time.perf_counter()))

    def restate(
        self, start: float, end: float, kernel_before_s: float, kernel_after_s: float
    ) -> Tuple[float, float]:
        """``(measured, calibrated)`` seconds of the work between
        ``start`` and ``end``, which two kernel timings bracket.

        The samples taken in between cut the work into stretches; each
        stretch is restated by the mean of the two kernel timings
        beside it.  The handler's own time belongs to no stretch."""
        cuts = [s for s in self.samples[self._unread:] if start <= s[0] and s[2] <= end]
        self._unread = len(self.samples)
        edges = [(start, kernel_before_s, start)] + cuts + [(end, kernel_after_s, end)]
        measured = calibrated = 0.0
        for (_, before, resumed), (cut, after, _) in zip(edges, edges[1:]):
            measured += cut - resumed
            calibrated += (cut - resumed) * REFERENCE_S / ((before + after) / 2.0)
        return measured, calibrated
