"""Scale benchmark: the columnar + sharded-oracle N=100k path.

``scale.columnar`` measures what PR 7's refactor bought: one process
building and then sustaining a latency-gradated overlay at populations
the object-per-node/omniscient path could never touch.  Per population
size it runs two phases against the sharded oracle realization
(:mod:`repro.oracles.sharded`) on the columnar store:

* **build** — a static construction from scratch (no churn), measuring
  raw rounds/sec and the satisfied fraction the batch-served directory
  reaches within the round budget;
* **churn** — the same population under the paper's §5.3 churn model,
  measuring sustained throughput and the churn-equilibrium satisfied
  fraction.

Satisfied fractions are seeded simulation outputs — deterministic,
exact-gated.  Throughputs are timings with the usual noise tolerance.
``peak_rss_mb`` is the one-sided memory metric of the bench schema
(:func:`repro.bench.env.peak_rss_mb`): lower is better, improvements
never fail.  The workload gives the directory a fair target — latency
budgets up to 40 hops' worth of slack and a minimum fanout of 2 — since
a uniformly-sampled directory cannot serve the tightest constraints an
omniscient roster scan can (the oracle-realization ablation quantifies
that information gap; this bench tracks the *scale* axis).

Scales: quick N=2000 (CI smoke), full N=2000/20000/100000 (the
BENCH_HISTORY.jsonl speed-ladder numbers in docs/SPEED.md).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.bench.env import peak_rss_mb
from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.oracles.sharded import ShardedOracle, autoscale_sizing
from repro.sim.churn import ChurnConfig
from repro.sim.runner import Simulation, SimulationConfig
from repro.workloads.random_workload import rand_workload

#: Full-scale population ladder (quick runs only the first rung).
POPULATIONS = (2000, 20000, 100000)


def scale_workload(population: int, seed: int = 0):
    """The bench population: feasible, with slack a sampled directory
    can actually serve (generous latency budgets, min fanout 2)."""
    workload, _ = rand_workload(
        size=population,
        seed=seed,
        source_fanout=32,
        max_latency=40,
        min_fanout=2,
        max_fanout=8,
    )
    return workload


def run_phase(
    population: int,
    rounds: int,
    seed: int,
    churn: bool,
    algorithm: str = "hybrid",
    oracle: str = "random-delay",
) -> Dict[str, object]:
    """One phase: build the overlay, run ``rounds`` rounds, report."""
    workload = scale_workload(population, seed)
    config = SimulationConfig(
        algorithm=algorithm,
        oracle=oracle,
        oracle_realization="sharded",
        seed=seed,
        max_rounds=rounds,
        churn=ChurnConfig() if churn else None,
        stop_at_convergence=False,
    )
    simulation = Simulation(workload, config)
    start = time.perf_counter()
    result = simulation.run()
    elapsed = time.perf_counter() - start
    sharded: Optional[ShardedOracle] = None
    oracle_obj = simulation.oracle
    if isinstance(oracle_obj, ShardedOracle):
        sharded = oracle_obj
    else:  # a fault decorator may wrap it
        inner = getattr(oracle_obj, "inner", None)
        if isinstance(inner, ShardedOracle):
            sharded = inner
    phase: Dict[str, object] = {
        "rounds": result.rounds_run,
        "seconds": elapsed,
        "rounds_per_sec": result.rounds_run / elapsed,
        "satisfied_fraction": result.final_quality.satisfied_fraction,
        "rooted": result.final_quality.rooted,
        "online": result.final_quality.online,
        "attaches": result.attaches,
        "detaches": result.detaches,
    }
    if sharded is not None:
        directory = sharded.directory
        phase["oracle"] = {
            "hits": sharded.hits,
            "misses": sharded.misses,
            "stale_hits": sharded.stale_hits,
            "shards": directory.n_shards,
            "reservoir_capacity": directory.reservoir_capacity,
            "batch_size": directory.batch_size,
            "rebalanced": directory.rebalanced,
        }
    return phase


@register(
    "scale.columnar",
    tags=("core", "oracles", "perf", "scale"),
    metrics={
        "rounds_per_sec": Metric(
            unit="rounds/s",
            higher_is_better=True,
            tolerance=0.35,
            description="columnar+sharded construction throughput",
        ),
        "satisfied_fraction": Metric(
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="end-state constraint satisfaction (seeded, exact)",
        ),
        "peak_rss_mb": Metric(
            unit="MB",
            higher_is_better=False,
            tolerance=0.5,
            description="process peak RSS after the largest population",
        ),
    },
    description="columnar store + sharded oracle at N=2000/20000/100000",
)
def scale_columnar(ctx: BenchContext) -> BenchResult:
    """Build + converge-under-churn throughput across the population ladder."""
    populations = [POPULATIONS[0]] if ctx.quick else list(POPULATIONS)
    build_rounds = 60 if ctx.quick else 200
    churn_rounds = 30 if ctx.quick else 100
    seed = 0
    min_build_satisfied = 0.35

    metrics: Dict[str, float] = {}
    failures: List[str] = []
    ladder: List[Dict[str, object]] = []
    for population in populations:
        build = run_phase(population, build_rounds, seed, churn=False)
        churned = run_phase(population, churn_rounds, seed, churn=True)
        key = f"n{population}"
        metrics[f"rounds_per_sec.build.{key}"] = build["rounds_per_sec"]
        metrics[f"rounds_per_sec.churn.{key}"] = churned["rounds_per_sec"]
        metrics[f"satisfied_fraction.build.{key}"] = build["satisfied_fraction"]
        metrics[f"satisfied_fraction.churn.{key}"] = churned[
            "satisfied_fraction"
        ]
        if build["satisfied_fraction"] < min_build_satisfied:
            failures.append(
                f"n{population}: build satisfied_fraction "
                f"{build['satisfied_fraction']:.3f} < {min_build_satisfied}"
            )
        ladder.append(
            {
                "population": population,
                "sizing": dict(
                    zip(
                        ("shards", "reservoir_capacity", "batch_size"),
                        autoscale_sizing(population),
                    )
                ),
                "build": build,
                "churn": churned,
                "rss_mb_after": peak_rss_mb(),
            }
        )
    # Monotone high-water mark: with the largest population last, this
    # is (up to prior allocations) the big run's footprint.
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail = {
        "benchmark": "scale",
        "populations": populations,
        "build_rounds": build_rounds,
        "churn_rounds": churn_rounds,
        "seed": seed,
        "algorithm": "hybrid",
        "oracle": "random-delay",
        "oracle_realization": "sharded",
        "ladder": ladder,
    }
    return BenchResult(metrics=metrics, detail=detail, failures=tuple(failures))
