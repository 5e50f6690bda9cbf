"""Chain-index benchmark: rounds/sec of a churned construction.

One seeded churned construction runs for a fixed number of rounds on the
production :class:`~repro.core.index.ChainIndex` reads and reports its
throughput and seeded end-state satisfaction.  The walk-on-read
reference stays as ``Overlay.walk_*``, audited by ``check_integrity()``
and the golden-seed guard in ``tests/test_chain_index.py``.

Scales: full N=2000 × 80 rounds, quick N=300 × 8 rounds (CI smoke).
"""

from __future__ import annotations

import time

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.sim.churn import ChurnConfig
from repro.sim.runner import Simulation, SimulationConfig
from repro.workloads.random_workload import rand_workload


def run_rounds(
    population: int, rounds: int, seed: int, algorithm: str, oracle: str
) -> dict:
    """Run ``rounds`` rounds; return timing and end-state statistics."""
    workload, _ = rand_workload(size=population, seed=seed, source_fanout=4)
    config = SimulationConfig(
        algorithm=algorithm,
        oracle=oracle,
        seed=seed,
        churn=ChurnConfig(),  # paper §5.3 churn: construction under churn
        max_rounds=rounds,
        stop_at_convergence=False,
    )
    simulation = Simulation(workload, config)
    start = time.perf_counter()
    result = simulation.run()
    elapsed = time.perf_counter() - start
    return {
        "rounds": result.rounds_run,
        "seconds": elapsed,
        "rounds_per_sec": result.rounds_run / elapsed,
        "satisfied_fraction": result.final_quality.satisfied_fraction,
        "attaches": result.attaches,
        "detaches": result.detaches,
    }


@register(
    "chain_index.churn",
    tags=("core", "index", "perf"),
    metrics={
        "rounds_per_sec": Metric(
            unit="rounds/s",
            higher_is_better=True,
            tolerance=0.35,
            description="churned construction throughput",
        ),
        "satisfied_fraction": Metric(
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="end-state constraint satisfaction (seeded, exact)",
        ),
    },
    description="ChainIndex-backed churned construction",
)
def chain_index_churn(ctx: BenchContext) -> BenchResult:
    population = 300 if ctx.quick else 2000
    rounds = 8 if ctx.quick else 80
    seed, algorithm, oracle = 0, "hybrid", "random-delay"
    indexed = run_rounds(population, rounds, seed, algorithm, oracle)
    metrics = {
        "rounds_per_sec": indexed["rounds_per_sec"],
        "satisfied_fraction": indexed["satisfied_fraction"],
    }
    detail = {
        "benchmark": "chain_index",
        "population": population,
        "rounds": rounds,
        "seed": seed,
        "algorithm": algorithm,
        "oracle": oracle,
        "churn": True,
        "indexed": indexed,
    }
    return BenchResult(metrics=metrics, detail=detail)
