"""Parallel-sweep benchmark: the Fig. 3 grid, serial vs process pools.

``parallel_sweep.grid`` runs the grid once on the serial reference
executor, then once per pool size (2 at ``--quick``, 2 and 4 at full
scale); the suite hard-fails if any pooled grid is not
**bit-identical** to the serial one (the :mod:`repro.par` determinism
contract) and reports wall-clock speedups.

The measured speedup is bounded by the CPUs actually available: a
repeat-median sweep is pure CPU-bound Python, so on an M-core machine
the pool can at best approach min(workers, M)×; on a single-core
container the parallel runs measure pure engine overhead (expect ~1×).
The record's environment fingerprint carries ``cpu_count`` so numbers
from different machines are never gated against each other.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.experiments import figure3
from repro.experiments.config import QUICK, ExperimentProfile
from repro.oracles.base import oracle_names
from repro.par import ProcessPoolSweepExecutor, SerialExecutor
from repro.workloads import PAPER_FAMILIES


def run_grid(profile: ExperimentProfile, families, oracles, executor) -> dict:
    """One timed Fig. 3 grid run under the given executor."""
    start = time.perf_counter()
    grid = figure3.run(
        profile, families=families, oracles=oracles, executor=executor
    )
    elapsed = time.perf_counter() - start
    return {
        "executor": executor.name,
        "workers": executor.workers,
        "seconds": elapsed,
        "cells": len(grid),
        "runs": len(grid) * profile.repeats,
        "grid": {
            f"{family}/{oracle}": runs.values
            for (family, oracle), runs in grid.items()
        },
    }


def run_scaling(
    profile: ExperimentProfile,
    families: Sequence[str],
    oracles: Sequence[str],
    worker_counts: Sequence[int],
) -> Tuple[dict, List[dict], List[str]]:
    """Serial reference plus one pooled run per worker count."""
    serial = run_grid(profile, families, oracles, SerialExecutor())
    parallel: List[dict] = []
    failures: List[str] = []
    for workers in worker_counts:
        run = run_grid(
            profile, families, oracles, ProcessPoolSweepExecutor(workers)
        )
        run["speedup"] = serial["seconds"] / run["seconds"]
        run["identical_to_serial"] = run["grid"] == serial["grid"]
        if not run["identical_to_serial"]:
            failures.append(f"{workers}-worker grid diverged from serial")
        parallel.append(run)
    return serial, parallel, failures


@register(
    "parallel_sweep.grid",
    tags=("par", "scaling", "perf"),
    metrics={
        "serial_seconds": Metric(
            unit="s",
            higher_is_better=False,
            tolerance=0.50,
            description="wall-clock of the serial reference grid",
        ),
        "speedup_w2": Metric(
            unit="x",
            higher_is_better=True,
            tolerance=0.50,
            description="2-worker pool speedup over serial",
        ),
        "identical": Metric(
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="1.0 iff every pooled grid was bit-identical",
        ),
    },
    description="Fig. 3 grid under serial vs process-pool executors",
)
def parallel_sweep_grid(ctx: BenchContext) -> BenchResult:
    if ctx.quick:
        profile = ExperimentProfile(
            name="smoke", population=30, repeats=2, max_rounds=800
        )
        families: Sequence[str] = ("Rand", "BiCorr")
        oracles: Sequence[str] = ("random", "random-delay")
        worker_counts: Sequence[int] = (2,)
    else:
        profile = QUICK
        families = PAPER_FAMILIES
        oracles = tuple(oracle_names())
        worker_counts = (2, 4)
    serial, parallel, failures = run_scaling(
        profile, families, oracles, worker_counts
    )
    metrics = {
        "serial_seconds": serial["seconds"],
        "identical": float(not failures),
    }
    for run in parallel:
        if run["workers"] == 2:
            metrics["speedup_w2"] = run["speedup"]
    detail = {
        "benchmark": "parallel_sweep",
        "profile": profile.name,
        "population": profile.population,
        "repeats": profile.repeats,
        "max_rounds": profile.max_rounds,
        "families": list(families),
        "oracles": list(oracles),
        "cpu_bound_note": (
            "speedup is bounded by min(workers, cpu_count); on a "
            "single-CPU machine the parallel runs measure engine "
            "overhead, not speedup"
        ),
        "serial": serial,
        "parallel": parallel,
        "identical": not failures,
    }
    return BenchResult(metrics=metrics, detail=detail, failures=tuple(failures))
