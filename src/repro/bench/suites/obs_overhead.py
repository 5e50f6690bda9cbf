"""Probe/recorder overhead benchmark: what observability costs.

The :mod:`repro.obs` contract is that observation never changes a run;
this suite quantifies the other half of the bargain — what it *costs*.
One churned construction workload is run three ways:

* ``off`` — the zero-cost :data:`~repro.obs.probe.NULL_PROBE`, no
  recorders (the production default);
* ``recorder`` — a full :class:`~repro.obs.probe.RecordingProbe`
  (typed event objects plus live aggregates);
* ``ring`` — the v2 flight-recorder stack: the health timeseries
  (O(dirty-set) captures into a bounded ring) plus round-domain
  staleness attribution, with the probe off.

The headline gate is ``ring_ratio`` — flight-recorder-on over
recorder-off rounds/sec — which the acceptance bar requires to stay
within 10% of 1.0; the deterministic ``events_total`` and
``health_samples`` counts pin that the instrumentation itself never
drifts.  Timings take the best of ``repeats`` runs per mode to damp
scheduler noise.

Scales: full N=2000 × 40 rounds, quick N=300 × 8 rounds (CI perf gate).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.obs.health import HealthConfig
from repro.obs.probe import RecordingProbe
from repro.sim.churn import ChurnConfig
from repro.sim.runner import Simulation, SimulationConfig
from repro.workloads.random_workload import rand_workload

#: End-state statistics that must be identical across all three modes
#: (recorders may never perturb a run).
INVARIANT_KEYS = ("attaches", "detaches", "satisfied_fraction")


def run_mode(
    mode: str, population: int, rounds: int, seed: int
) -> dict:
    """One seeded churned run in the given observability mode."""
    workload, _ = rand_workload(size=population, seed=seed, source_fanout=4)
    config = SimulationConfig(
        algorithm="hybrid",
        oracle="random-delay",
        seed=seed,
        churn=ChurnConfig(),
        max_rounds=rounds,
        stop_at_convergence=False,
        health=HealthConfig() if mode == "ring" else None,
        attribution=(mode == "ring"),
    )
    probe: Optional[RecordingProbe] = (
        RecordingProbe() if mode == "recorder" else None
    )
    simulation = Simulation(workload, config, probe=probe)
    start = time.perf_counter()
    result = simulation.run()
    elapsed = time.perf_counter() - start
    stats = {
        "mode": mode,
        "rounds": result.rounds_run,
        "seconds": elapsed,
        "rounds_per_sec": result.rounds_run / elapsed,
        "satisfied_fraction": result.final_quality.satisfied_fraction,
        "attaches": result.attaches,
        "detaches": result.detaches,
    }
    if probe is not None:
        stats["events_total"] = len(probe.events)
    if simulation.health is not None:
        stats["health_samples"] = len(simulation.health.samples)
        stats["health_dropped"] = simulation.health.samples.dropped
    return stats


def best_of(mode: str, population: int, rounds: int, seed: int, repeats: int) -> dict:
    """Fastest of ``repeats`` runs (deterministic fields are identical)."""
    runs = [run_mode(mode, population, rounds, seed) for _ in range(repeats)]
    return max(runs, key=lambda stats: stats["rounds_per_sec"])


@register(
    "obs.overhead",
    tags=("obs", "perf"),
    metrics={
        "rounds_per_sec": Metric(
            unit="rounds/s",
            higher_is_better=True,
            tolerance=0.35,
            description="recorder-off construction throughput",
        ),
        "ring_ratio": Metric(
            unit="x",
            higher_is_better=True,
            tolerance=0.10,
            description="flight-recorder-on over recorder-off rounds/sec "
            "(the within-10% acceptance gate)",
        ),
        "recorder_ratio": Metric(
            unit="x",
            higher_is_better=True,
            tolerance=0.20,
            description="full RecordingProbe over recorder-off rounds/sec",
        ),
        "events_total": Metric(
            unit="events",
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="events a RecordingProbe captures (seeded, exact)",
        ),
        "health_samples": Metric(
            unit="samples",
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="flight-recorder samples held (seeded, exact)",
        ),
    },
    description="NullProbe vs RecordingProbe vs flight-recorder overhead "
    "on a churned construction",
)
def obs_overhead(ctx: BenchContext) -> BenchResult:
    population = 300 if ctx.quick else 2000
    rounds = 8 if ctx.quick else 40
    seed = 0
    repeats = 2
    off = best_of("off", population, rounds, seed, repeats)
    recorder = best_of("recorder", population, rounds, seed, repeats)
    ring = best_of("ring", population, rounds, seed, repeats)
    failures = []
    for key in INVARIANT_KEYS:
        values = {off[key], recorder[key], ring[key]}
        if len(values) != 1:
            failures.append(f"{key} diverged across observability modes")
    metrics = {
        "rounds_per_sec": off["rounds_per_sec"],
        "ring_ratio": ring["rounds_per_sec"] / off["rounds_per_sec"],
        "recorder_ratio": recorder["rounds_per_sec"] / off["rounds_per_sec"],
        "events_total": float(recorder["events_total"]),
        "health_samples": float(ring["health_samples"]),
    }
    detail = {
        "benchmark": "obs_overhead",
        "population": population,
        "rounds": rounds,
        "seed": seed,
        "repeats": repeats,
        "churn": True,
        "off": off,
        "recorder": recorder,
        "ring": ring,
    }
    return BenchResult(metrics=metrics, detail=detail, failures=tuple(failures))
