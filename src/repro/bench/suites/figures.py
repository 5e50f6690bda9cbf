"""Registered variants of the paper-figure grids (Fig. 2/3/4).

Each benchmark re-runs one figure's seed sweep at bench scale (the
``QUICK`` experiment profile) — or at an even smaller smoke scale under
``--quick`` — and reports the **seeded, exact** per-cell medians as
deterministic metrics plus the sweep's wall-clock as a timing metric.
Because the medians are bit-identical for identical code, a committed
baseline turns these into a cross-machine behavior gate: any change
that moves a figure's numbers trips ``repro bench compare`` until the
baseline is regenerated deliberately.

Cells that starve by design (Fig. 3's O2a/O2b on some families report a
``None`` median) are excluded from the metric set — the ``stuck``
shape is asserted by
``tests/test_experiments.py::TestFigureModules::test_figure3_grid_keys``,
not here.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.experiments import figure2, figure3, figure4
from repro.experiments.config import QUICK, ExperimentProfile

#: The --quick smoke scale shared by the three figure benchmarks.
SMOKE = ExperimentProfile(name="smoke", population=30, repeats=2, max_rounds=800)

_SECONDS = Metric(
    unit="s",
    higher_is_better=False,
    tolerance=0.50,
    description="sweep wall-clock",
)

_ROUNDS = Metric(
    unit="rounds",
    higher_is_better=False,
    tolerance=0.0,
    deterministic=True,
    description="median construction latency (seeded, exact)",
)


def _profile(ctx: BenchContext) -> ExperimentProfile:
    return SMOKE if ctx.quick else QUICK


@register(
    "figure2.spread",
    tags=("figures", "grid"),
    metrics={"seconds": _SECONDS, "rounds": _ROUNDS},
    description="Fig. 2 convergence-variation sweep (per-family medians)",
)
def figure2_spread(ctx: BenchContext) -> BenchResult:
    profile = _profile(ctx)
    families: Sequence[str] = (
        ("Rand", "BiUnCorr") if ctx.quick else ("Rand", "BiCorr", "BiUnCorr")
    )
    repeats = 3 if ctx.quick else 5
    start = time.perf_counter()
    summaries = figure2.run(profile, repeats=repeats, families=families)
    elapsed = time.perf_counter() - start
    metrics: Dict[str, float] = {"seconds": elapsed}
    for family, summary in summaries.items():
        metrics[f"rounds.{family}"] = summary.median
    detail = {
        "benchmark": "figure2.spread",
        "profile": profile.name,
        "population": profile.population,
        "repeats": repeats,
        "families": list(families),
        "summaries": {
            family: {
                "n": s.n,
                "min": s.minimum,
                "median": s.median,
                "max": s.maximum,
                "spread_ratio": s.spread_ratio,
            }
            for family, s in summaries.items()
        },
    }
    return BenchResult(metrics=metrics, detail=detail)


@register(
    "figure3.oracle_grid",
    tags=("figures", "grid"),
    metrics={"seconds": _SECONDS, "rounds": _ROUNDS},
    description="Fig. 3 (family x oracle) grid (per-cell medians)",
)
def figure3_oracle_grid(ctx: BenchContext) -> BenchResult:
    profile = _profile(ctx)
    if ctx.quick:
        families: Sequence[str] = ("Rand", "BiCorr")
        oracles: Sequence[str] = ("random", "random-delay")
    else:
        from repro.oracles.base import oracle_names
        from repro.workloads import PAPER_FAMILIES

        families, oracles = PAPER_FAMILIES, tuple(oracle_names())
    start = time.perf_counter()
    grid = figure3.run(profile, families=families, oracles=oracles)
    elapsed = time.perf_counter() - start
    metrics: Dict[str, float] = {"seconds": elapsed}
    stuck = []
    for (family, oracle), runs in grid.items():
        if runs.median is None:
            stuck.append(f"{family}/{oracle}")
        else:
            metrics[f"rounds.{family}.{oracle}"] = runs.median
    detail = {
        "benchmark": "figure3.oracle_grid",
        "profile": profile.name,
        "population": profile.population,
        "repeats": profile.repeats,
        "families": list(families),
        "oracles": list(oracles),
        "stuck_cells": stuck,
        "grid": {
            f"{family}/{oracle}": runs.values
            for (family, oracle), runs in grid.items()
        },
    }
    return BenchResult(metrics=metrics, detail=detail)


@register(
    "figure4.greedy_vs_hybrid",
    tags=("figures", "grid"),
    metrics={"seconds": _SECONDS, "rounds": _ROUNDS},
    description="Fig. 4 Greedy-vs-Hybrid on BiCorr, static and churn",
)
def figure4_greedy_vs_hybrid(ctx: BenchContext) -> BenchResult:
    profile = _profile(ctx)
    start = time.perf_counter()
    grid = figure4.run(profile)
    elapsed = time.perf_counter() - start
    metrics: Dict[str, float] = {"seconds": elapsed}
    stuck = []
    for (algorithm, regime), runs in grid.items():
        if runs.median is None:
            stuck.append(f"{algorithm}/{regime}")
        else:
            metrics[f"rounds.{algorithm}.{regime}"] = runs.median
    detail = {
        "benchmark": "figure4.greedy_vs_hybrid",
        "profile": profile.name,
        "population": profile.population,
        "repeats": profile.repeats,
        "family": figure4.FAMILY,
        "stuck_cells": stuck,
        "grid": {
            f"{algorithm}/{regime}": runs.values
            for (algorithm, regime), runs in grid.items()
        },
    }
    return BenchResult(metrics=metrics, detail=detail)
