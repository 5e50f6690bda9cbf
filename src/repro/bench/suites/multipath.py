"""Multipath delivery benchmark: availability vs failures vs budget.

One registered benchmark:

``multipath.avail``
    Build k-path systems (k ∈ {1, 2, 3}) over the same workload at the
    same *total* fanout budget (the stripe-interleaved split of
    :class:`repro.multipath.MultipathSystem`), then sweep random-failure
    fractions and report the delivered fraction per (k, fraction) cell.
    All metrics are seeded simulation outputs — deterministic, zero
    tolerance — so the perf gate pins the availability surface exactly.
    Hard-fails if k=2 does not strictly beat k=1 at any swept fraction
    (the §7 acceptance criterion), or if any system fails to converge.

The default draw is ``Rand(size=40, seed=2)``: a known-converging
configuration for every k (see the design notes in
:mod:`repro.multipath.delivery` — k=3 can livelock on tight large
draws, so the bench pins a draw where the full grid converges
deterministically).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.core.errors import ConfigurationError
from repro.multipath import delivery_under_failures
from repro.workloads import make

#: Failure fractions swept at full scale; ``--quick`` keeps the ends.
FULL_FRACTIONS = (0.1, 0.2, 0.3)
QUICK_FRACTIONS = (0.1, 0.3)

#: Path counts compared at equal total fanout budget.
PATH_COUNTS = (1, 2, 3)


def metric_key(paths: int, fraction: float) -> str:
    """``delivered.k2.f30`` — delivered fraction, k paths, f% failed."""
    return f"delivered.k{paths}.f{int(round(fraction * 100))}"


_METRICS: Dict[str, Metric] = {
    metric_key(paths, fraction): Metric(
        higher_is_better=True,
        tolerance=0.0,
        deterministic=True,
        description=(
            f"delivered fraction with k={paths} paths, "
            f"{int(round(fraction * 100))}% of consumers failed"
        ),
    )
    for paths in PATH_COUNTS
    for fraction in FULL_FRACTIONS
}
_METRICS["k2_gain_min"] = Metric(
    higher_is_better=True,
    tolerance=0.0,
    deterministic=True,
    description="worst-case delivered-fraction gain of k=2 over k=1",
)


@register(
    "multipath.avail",
    tags=("resilience", "multipath", "perf"),
    metrics=_METRICS,
    description="Delivery availability vs failed fraction, k ∈ {1,2,3}",
)
def multipath_avail(ctx: BenchContext) -> BenchResult:
    size = 40
    seed = 2
    trials = 5
    fractions = QUICK_FRACTIONS if ctx.quick else FULL_FRACTIONS
    workload = make("Rand", size=size, seed=seed)
    metrics: Dict[str, float] = {}
    failures: List[str] = []
    rows_by_k: Dict[int, list] = {}
    for paths in PATH_COUNTS:
        try:
            rows = delivery_under_failures(
                workload,
                paths=paths,
                failure_fractions=list(fractions),
                seed=seed,
                trials=trials,
            )
        except ConfigurationError as exc:
            failures.append(f"k={paths}: {exc}")
            continue
        rows_by_k[paths] = rows
        for row in rows:
            metrics[metric_key(paths, row.failed_fraction)] = (
                row.delivered_fraction
            )
    if 1 in rows_by_k and 2 in rows_by_k:
        gains = []
        for one, two in zip(rows_by_k[1], rows_by_k[2]):
            gain = two.delivered_fraction - one.delivered_fraction
            gains.append(gain)
            if gain <= 0:
                failures.append(
                    f"k=2 did not beat k=1 at failed fraction "
                    f"{one.failed_fraction:g} (equal total fanout budget)"
                )
        metrics["k2_gain_min"] = min(gains)
    detail = {
        "benchmark": "multipath.avail",
        "workload": "Rand",
        "size": size,
        "seed": seed,
        "trials": trials,
        "failure_fractions": list(fractions),
        "rows": [
            dataclasses.asdict(row)
            for rows in rows_by_k.values()
            for row in rows
        ],
    }
    return BenchResult(metrics=metrics, detail=detail, failures=tuple(failures))
