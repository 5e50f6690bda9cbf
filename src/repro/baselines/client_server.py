"""The direct-polling baseline: what LagOver replaces (§1).

Every consumer polls the source directly at its own tolerance period
(``l_i`` pull periods — the laziest schedule that still meets its
constraint), and the source serves at most ``capacity`` requests per time
unit.  As the population grows the aggregate request rate grows linearly
and overflows any fixed capacity — the "bandwidth overload problem" of
the introduction (Pointcast's fate, per the paper).  Rejected polls are
retried only at the client's next scheduled poll, so overload translates
directly into missed updates and staleness blowup.

Contrast: a LagOver puts at most ``f_0`` pullers on the source — load is
*constant* in the population size — which
``repro.experiments.baselines_experiment.polling_sweep`` measures side
by side (its claim is asserted by
``tests/test_experiments.py::TestFigureModules::test_polling_sweep_rows``).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List

from repro.core.errors import ConfigurationError
from repro.feeds.client import FeedConsumer
from repro.feeds.source import FeedSource
from repro.sim.engine import EventScheduler
from repro.workloads.base import Workload


@dataclasses.dataclass(frozen=True)
class PollingReport:
    """Outcome of a direct-polling run."""

    population: int
    capacity: int
    duration: float
    requests: int
    rejected: int
    satisfied_fraction: float  # consumers whose worst staleness <= l_i
    mean_worst_staleness: float

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.requests if self.requests else 0.0

    @property
    def offered_load_per_unit(self) -> float:
        """Requests per time unit the population throws at the source."""
        return self.requests / self.duration if self.duration else 0.0


class DirectPollingBaseline:
    """Simulates every consumer polling the source on its own schedule."""

    def __init__(
        self,
        workload: Workload,
        capacity: int,
        seed: int = 0,
        pull_period: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("source capacity must be >= 1")
        self.workload = workload
        self.capacity = capacity
        self.pull_period = pull_period
        self.rng = random.Random(seed)
        self.scheduler = EventScheduler()
        self.source = FeedSource(capacity_per_unit=capacity)
        self.consumers: Dict[int, FeedConsumer] = {}
        self._periods: Dict[int, float] = {}

    def _poll(self, consumer_id: int) -> None:
        consumer = self.consumers[consumer_id]
        served = self.source.pull(
            self.scheduler.now, since_seq=consumer.last_seen_seq
        )
        if served is not None:
            items, _ = served
            consumer.deliver(items, self.scheduler.now)
        self.scheduler.schedule(self._periods[consumer_id], self._poll, consumer_id)

    def run(self, duration: float = 100.0) -> PollingReport:
        """Run the polling population for ``duration`` time units."""
        specs = self.workload.specs
        for index, spec in enumerate(specs):
            consumer_id = index + 1
            self.consumers[consumer_id] = FeedConsumer(consumer_id)
            # Poll once per l_i periods: the laziest constraint-meeting rate.
            self._periods[consumer_id] = spec.latency * self.pull_period
            self.scheduler.schedule(
                self.rng.uniform(0, self._periods[consumer_id]),
                self._poll,
                consumer_id,
            )
        self.scheduler.run_until(duration)
        self.source.advance_to(duration)
        worst: List[float] = []
        satisfied = 0
        for index, spec in enumerate(specs):
            consumer = self.consumers[index + 1]
            # Evaluate items old enough to have been pollable.
            horizon = max(0, self.source.latest_seq - spec.latency - 1)
            missing = horizon - sum(
                1 for seq in consumer.arrivals if seq <= horizon
            )
            w = consumer.worst_staleness() / self.pull_period
            worst.append(w)
            if missing <= 0 and w <= spec.latency + 1e-9:
                satisfied += 1
        return PollingReport(
            population=len(specs),
            capacity=self.capacity,
            duration=duration,
            requests=self.source.requests_total,
            rejected=self.source.requests_rejected,
            satisfied_fraction=satisfied / len(specs) if specs else 1.0,
            mean_worst_staleness=sum(worst) / len(worst) if worst else 0.0,
        )
