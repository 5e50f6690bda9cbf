"""Self-stabilization smoke benchmark: recovery from corrupted state.

One registered benchmark:

``stabilize.converge``
    Build a converged overlay, corrupt it with the seeded generator
    (:func:`repro.stabilize.corrupt_overlay` — states no protocol run
    could reach), then recover with
    :func:`repro.stabilize.stabilize` and pin the exact recovery round
    count per (algorithm × realization) cell.  Deterministic, zero
    tolerance: the perf gate catches both a broken recovery (hard
    failure) and a silently changed recovery trajectory.  Hard-fails if
    any cell misses the documented :func:`repro.stabilize.round_bound`
    or leaves ``check_integrity()`` raising.

The property suite (``tests/test_stabilize.py``) explores random
corruption seeds; this benchmark pins one seed and tracks the numbers
over time.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.core.errors import LagOverError
from repro.core.tree import Overlay
from repro.stabilize import corrupt_overlay, round_bound, stabilize
from repro.stabilize.harness import converge
from repro.workloads import make

ALGORITHMS = ("greedy", "hybrid")
REALIZATIONS = ("omniscient", "sharded")


def metric_key(algorithm: str, realization: str) -> str:
    return f"rounds.{algorithm}.{realization}"


_METRICS: Dict[str, Metric] = {
    metric_key(algorithm, realization): Metric(
        unit="rounds",
        higher_is_better=False,
        tolerance=0.0,
        deterministic=True,
        description=(
            f"recovery rounds from seeded corruption, "
            f"{algorithm} × {realization}"
        ),
    )
    for algorithm in ALGORITHMS
    for realization in REALIZATIONS
}


def run_cell(
    algorithm: str,
    realization: str,
    size: int,
    seed: int,
    corruption_seed: int,
    intensity: float,
) -> dict:
    """Build → corrupt → stabilize one cell; returns outcome numbers."""
    workload = make("Rand", size=size, seed=seed)
    overlay = Overlay(source_fanout=workload.source_fanout)
    overlay.add_population(workload.population)
    built, build_rounds = converge(
        overlay,
        algorithm=algorithm,
        realization=realization,
        seed=seed,
        max_rounds=4000,
    )
    if not built:
        return {"error": "construction itself failed to converge"}
    applied = corrupt_overlay(
        overlay, random.Random(corruption_seed), intensity=intensity
    )
    try:
        outcome = stabilize(
            overlay,
            algorithm=algorithm,
            realization=realization,
            seed=corruption_seed,
        )
    except LagOverError as exc:
        return {"error": f"integrity violated during recovery: {exc}"}
    return {
        "build_rounds": build_rounds,
        "corruptions": applied,
        "converged": outcome.converged,
        "rounds": outcome.rounds,
        "bound": outcome.bound,
    }


@register(
    "stabilize.converge",
    tags=("resilience", "stabilize"),
    metrics=_METRICS,
    description="Seeded corruption-recovery rounds, greedy/hybrid × "
    "omniscient/sharded",
)
def stabilize_converge(ctx: BenchContext) -> BenchResult:
    size = 24 if ctx.quick else 60
    seed = 3
    corruption_seed = 7
    intensity = 0.25
    metrics: Dict[str, float] = {}
    failures: List[str] = []
    cells: Dict[str, dict] = {}
    for algorithm in ALGORITHMS:
        for realization in REALIZATIONS:
            key = metric_key(algorithm, realization)
            cell = run_cell(
                algorithm, realization, size, seed, corruption_seed, intensity
            )
            cells[key] = cell
            if "error" in cell:
                failures.append(f"{key}: {cell['error']}")
                continue
            if not cell["converged"]:
                failures.append(
                    f"{key}: did not re-converge within the documented "
                    f"bound of {cell['bound']} rounds"
                )
                continue
            metrics[key] = float(cell["rounds"])
    detail = {
        "benchmark": "stabilize.converge",
        "workload": "Rand",
        "size": size,
        "seed": seed,
        "corruption_seed": corruption_seed,
        "intensity": intensity,
        "round_bound": round_bound(size),
        "cells": cells,
    }
    return BenchResult(metrics=metrics, detail=detail, failures=tuple(failures))
