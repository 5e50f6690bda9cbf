"""Continuous-time engine benchmark: events fired, ticks/sec, ms staleness.

``time.continuous`` tracks what the continuous clock adds on top of the
rounds engine (:mod:`repro.sim.continuous`) for a build over the
``geo-3region`` profile:

* **events fired** — how many timestamped actions the build took: every
  oracle contact and attach handshake, and the maintenance self-checks
  of nodes that are not settled (settled ones sleep until the chain
  index wakes them).  Seeded and exact, lower is better: it is the
  engine's work counter, and a jump means nodes are being polled again;
* **rounds/sec** — boundary ticks simulated per wall-clock second, the
  price of the wall-clock realism relative to the synchronous loop.
  (Events per second is not tracked: the events that remain are the
  ones that do work, so firing fewer of them *lowers* that rate);
* **ms-staleness percentiles** — the seeded, deterministic p50/p99 of
  wall-clock staleness over the built overlay, exact-gated like every
  other simulation output: a change here means the latency substrate or
  the engine's event ordering changed, not noise.

The run is executed twice and the deterministic outputs must be
bit-identical between the two passes — the bench *fails* (not regresses)
if the engine has picked up run-to-run nondeterminism, which is the
invariant every golden-seed test in ``tests/test_continuous_time.py``
builds on.

Scales: quick N=600 (CI smoke, the committed baseline), full N=2000
(the BENCH_HISTORY.jsonl trajectory).
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.bench.suites.scale import scale_workload
from repro.sim.runner import SimulationConfig, make_simulation


def run_continuous(population: int, rounds: int, seed: int):
    """One timed continuous-mode build; returns ``(result, elapsed)``."""
    workload = scale_workload(population, seed)
    config = SimulationConfig(
        algorithm="hybrid",
        oracle="random-delay",
        oracle_realization="sharded",
        seed=seed,
        max_rounds=rounds,
        stop_at_convergence=False,
        time_model="continuous:geo-3region",
    )
    simulation = make_simulation(workload, config)
    start = time.perf_counter()
    result = simulation.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


@register(
    "time.continuous",
    tags=("core", "perf", "time"),
    metrics={
        "events_fired": Metric(
            unit="events",
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="timestamped actions the build took (seeded, exact)",
        ),
        "rounds_per_sec": Metric(
            unit="rounds/s",
            higher_is_better=True,
            tolerance=0.35,
            description="boundary ticks simulated per wall-clock second",
        ),
        "staleness_ms_p50": Metric(
            unit="ms",
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="median wall-clock staleness (seeded, exact)",
        ),
        "staleness_ms_p99": Metric(
            unit="ms",
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="tail wall-clock staleness (seeded, exact)",
        ),
        "satisfied_fraction": Metric(
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="end-state constraint satisfaction (seeded, exact)",
        ),
    },
    description="continuous-time engine over geo-3region: events fired, "
    "ticks/sec + deterministic ms-staleness",
)
def time_continuous(ctx: BenchContext) -> BenchResult:
    """Timed continuous build, repeated to pin run-to-run determinism."""
    population = 600 if ctx.quick else 2000
    rounds = 40 if ctx.quick else 80
    seed = 0

    failures: List[str] = []
    first, elapsed = run_continuous(population, rounds, seed)
    second, again = run_continuous(population, rounds, seed)
    elapsed = min(elapsed, again)  # identical work twice: keep the quieter
    for field in (
        "staleness_ms_p50",
        "staleness_ms_p99",
        "events_fired",
        "sim_time_ms",
        "attaches",
        "detaches",
    ):
        a, b = getattr(first, field), getattr(second, field)
        if a != b:
            failures.append(
                f"nondeterministic {field}: {a!r} != {b!r} across "
                "back-to-back runs of one seed"
            )

    metrics: Dict[str, float] = {
        "events_fired": float(first.events_fired),
        "rounds_per_sec": first.rounds_run / elapsed,
        "staleness_ms_p50": first.staleness_ms_p50 or 0.0,
        "staleness_ms_p99": first.staleness_ms_p99 or 0.0,
        "satisfied_fraction": first.final_quality.satisfied_fraction,
    }
    detail = {
        "benchmark": "continuous",
        "population": population,
        "rounds": rounds,
        "seed": seed,
        "profile": "geo-3region",
        "events_fired": first.events_fired,
        "sim_time_ms": first.sim_time_ms,
        "seconds": elapsed,
        "attaches": first.attaches,
        "detaches": first.detaches,
    }
    return BenchResult(metrics=metrics, detail=detail, failures=tuple(failures))
