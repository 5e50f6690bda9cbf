"""Full-scale runs of the §7 extensions and the beyond-paper studies.

Each table function prints its table and returns the outcomes it was
built from, so ``tests/test_extensions_experiment.py`` asserts the
claims on the same runs.

Run: ``python -m repro.experiments.extensions``
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import ascii_table, banner
from repro.feeds.live import LiveDeliveryReport, live_delivery
from repro.locality import LocalityOutcome, run_pair
from repro.multifeed import MultiFeedSystem, ReuseMetrics, reuse_oracle_factory
from repro.multipath import ResilienceRow, delivery_under_failures
from repro.sim.runner import SimulationConfig, run_simulation
from repro.workloads import make as make_workload


def locality_table(
    population: int = 120, seeds=(0, 1, 2)
) -> List[Tuple[LocalityOutcome, LocalityOutcome]]:
    """The (plain, locality-biased) outcome pair of each seed."""
    print(banner("Extension: locality-gradated construction (Rand)"))
    pairs = [run_pair(population=population, seed=seed) for seed in seeds]
    rows = []
    for seed, pair in zip(seeds, pairs):
        for outcome in pair:
            rows.append(
                [
                    seed,
                    outcome.variant,
                    outcome.construction_rounds,
                    round(outcome.mean_edge_distance, 3),
                    f"{outcome.same_domain_fraction:.0%}",
                    round(outcome.mean_delivered_staleness, 2),
                ]
            )
    print(
        ascii_table(
            ["seed", "oracle", "rounds", "edge dist", "same-domain", "staleness"],
            rows,
        )
    )
    print()
    return pairs


def multifeed_table(
    consumers: int = 120, seeds=(4, 5, 6)
) -> Dict[str, List[Tuple[bool, ReuseMetrics]]]:
    """Per oracle label, each seed's (all feeds converged, reuse metrics)."""
    print(banner("Extension: multi-feed reuse over intersecting consumers"))
    outcomes: Dict[str, List[Tuple[bool, ReuseMetrics]]] = {}
    rows = []
    for seed in seeds:
        for label, factory in (
            ("independent", None),
            ("reuse-biased", reuse_oracle_factory(0.9)),
        ):
            system = MultiFeedSystem(
                ["news", "sports", "tech"],
                consumer_count=consumers,
                seed=seed,
                oracle_factory=factory,
            )
            converged = system.run_sequential()
            metrics = system.reuse_metrics()
            outcomes.setdefault(label, []).append((converged, metrics))
            rows.append(
                [
                    seed,
                    label,
                    converged,
                    metrics.distinct_partnerships,
                    metrics.reused_partnerships,
                    f"{metrics.reuse_fraction:.0%}",
                    round(metrics.mean_neighbors_per_consumer, 2),
                ]
            )
    print(
        ascii_table(
            [
                "seed",
                "oracle",
                "converged",
                "partnerships",
                "reused",
                "reuse frac",
                "mean neighbors",
            ],
            rows,
        )
    )
    print()
    return outcomes


def multipath_table(
    population: int = 120, seed: int = 2
) -> Dict[int, List[ResilienceRow]]:
    """Per path count, one row per failed fraction."""
    print(banner("Extension: multipath delivery under failures (Rand)"))
    workload = make_workload("Rand", size=population, seed=seed)
    by_paths = {
        paths: delivery_under_failures(
            workload,
            paths=paths,
            failure_fractions=[0.05, 0.15, 0.25],
            seed=seed,
            trials=10,
        )
        for paths in (1, 2, 3)
    }
    rows = []
    for paths, result_rows in by_paths.items():
        for row in result_rows:
            rows.append(
                [
                    paths,
                    row.failed_fraction,
                    f"{row.delivered_fraction:.1%}",
                    round(row.mean_surviving_paths, 2),
                ]
            )
    print(
        ascii_table(
            ["paths", "failed", "delivered", "surviving descriptions"], rows
        )
    )
    print()
    return by_paths


def live_delivery_table(
    population: int = 120, seed: int = 1
) -> Dict[float, LiveDeliveryReport]:
    """Per leave probability, the live-delivery report."""
    print(banner("Beyond the paper: live delivery under churn (Rand)"))
    workload = make_workload("Rand", size=population, seed=seed)
    reports = {
        leave: live_delivery(
            workload, seed=seed, leave_probability=leave, duration=200
        )
        for leave in (0.0, 0.01, 0.04)
    }
    rows = []
    for leave, report in reports.items():
        rows.append(
            [
                leave,
                report.published,
                report.deliveries,
                f"{report.on_time_fraction:.3f}",
                f"{report.delivery_ratio:.3f}",
                report.departures,
            ]
        )
    print(
        ascii_table(
            ["leave prob", "items", "deliveries", "on-time", "ratio", "departures"],
            rows,
        )
    )
    print()
    return reports


def scalability_table(
    seeds=(1, 2, 3)
) -> Dict[Tuple[str, int], List[Optional[int]]]:
    """Per (algorithm, population), each seed's construction rounds."""
    print(banner("Beyond the paper: population scalability (Rand)"))
    grid: Dict[Tuple[str, int], List[Optional[int]]] = {}
    rows = []
    for algorithm in ("greedy", "hybrid"):
        for population in (60, 120, 240, 480):
            values = []
            for seed in seeds:
                workload = make_workload("Rand", size=population, seed=seed)
                result = run_simulation(
                    workload,
                    SimulationConfig(
                        algorithm=algorithm, seed=seed, max_rounds=12_000
                    ),
                )
                values.append(result.construction_rounds)
            grid[(algorithm, population)] = values
            rows.append(
                [
                    algorithm,
                    population,
                    statistics.median(v for v in values if v is not None),
                    values.count(None),
                ]
            )
    print(
        ascii_table(
            ["algorithm", "population", "median rounds", "failures"], rows
        )
    )
    return grid


def main() -> None:
    locality_table()
    multifeed_table()
    multipath_table()
    live_delivery_table()
    scalability_table()


if __name__ == "__main__":
    main()
