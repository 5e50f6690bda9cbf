"""Ablations of the design choices the paper motivates but does not sweep.

Five studies, each a runnable function plus a row renderer:

* **Hybrid × Oracles** — §5.2 claims "similar behaviour was observed for
  experiments conducted with the Hybrid LagOver construction algorithm";
  we regenerate the Fig. 3 grid under Hybrid.
* **Maintenance damping** — §3.2 argues lazy maintenance beats knee-jerk
  reactive detaching; we run both variants and compare construction
  latency and structural churn (detach counts).
* **Timeout length** — the ``Timeout`` of Alg. 2 is unspecified; we sweep
  it and show convergence is robust while the value trades off oracle
  load against source hammering.
* **Churn intensity** — §5.3 uses one operating point (0.01/0.2); we
  sweep the leave probability and measure steady-state satisfaction.
* **Oracle realization** — omniscient directory (the paper's simulation)
  vs the DHT-hosted directory vs gossip random walkers (the deployment
  sketch), quantifying what implementation realism costs.

Run all: ``python -m repro.experiments.ablations``
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.convergence_analysis import steady_state_mean, worst_dip
from repro.analysis.reporting import ascii_table, banner
from repro.analysis.stats import MedianOfRuns
from repro.core.greedy import GreedyConstruction
from repro.core.hybrid import HybridConstruction
from repro.core.maintenance import eager_maintenance, eager_settled
from repro.core.protocol import ProtocolConfig
from repro.experiments.config import PAPER, ExperimentProfile
from repro.experiments.runner import resolve_executor
from repro.par.executor import SweepExecutor
from repro.par.items import median_of_outcomes, repeat_items
from repro.sim.churn import ChurnConfig
from repro.sim.runner import SimulationConfig, register_algorithm


# ----------------------------------------------------------------------
# knee-jerk maintenance variants (§3.2's strawman)
# ----------------------------------------------------------------------


class EagerGreedyConstruction(GreedyConstruction):
    """Greedy construction with knee-jerk maintenance: detach as soon as
    the (potential) delay exceeds the constraint, even in unrooted
    fragments — the reactive behaviour §3.2 argues against."""

    name = "greedy-eager"

    def maintain(self, node):
        return eager_maintenance(self.overlay, node)

    settled = eager_settled


class EagerHybridConstruction(HybridConstruction):
    """Hybrid construction with knee-jerk maintenance."""

    name = "hybrid-eager"

    def maintain(self, node):
        return eager_maintenance(self.overlay, node)

    settled = eager_settled


register_algorithm(EagerGreedyConstruction)
register_algorithm(EagerHybridConstruction)


MAINTENANCE_HEADERS = [
    "variant",
    "median rounds",
    "failures",
    "median detaches",
]


def maintenance_comparison(
    profile: ExperimentProfile = PAPER,
    family: str = "BiCorr",
    executor: Optional[SweepExecutor] = None,
) -> List[List[object]]:
    """Lazy (paper) vs knee-jerk (strawman) maintenance, both algorithms."""
    variants = ("greedy", "greedy-eager", "hybrid", "hybrid-eager")
    work = []
    for algorithm in variants:
        work.extend(
            repeat_items(
                family,
                SimulationConfig(
                    algorithm=algorithm, max_rounds=profile.max_rounds
                ),
                profile.population,
                profile.repeats,
                base_seed=profile.base_seed,
            )
        )
    outcomes = resolve_executor(executor).run(work)
    rows: List[List[object]] = []
    for index, algorithm in enumerate(variants):
        chunk = outcomes[index * profile.repeats : (index + 1) * profile.repeats]
        runs = MedianOfRuns([o.construction_rounds for o in chunk])
        detaches = [o.result.detaches for o in chunk if o.ok]
        rows.append(
            [
                algorithm,
                runs.median,
                runs.failures,
                statistics.median(detaches),
            ]
        )
    return rows


# ----------------------------------------------------------------------
# timeout sweep
# ----------------------------------------------------------------------

TIMEOUT_HEADERS = ["timeout", "greedy median", "hybrid median", "failures"]


def timeout_sweep(
    profile: ExperimentProfile = PAPER,
    family: str = "BiCorr",
    timeouts: Sequence[int] = (1, 2, 4, 8, 16),
    executor: Optional[SweepExecutor] = None,
) -> List[List[object]]:
    keys = [
        (timeout, algorithm)
        for timeout in timeouts
        for algorithm in ("greedy", "hybrid")
    ]
    work = []
    for timeout, algorithm in keys:
        work.extend(
            repeat_items(
                family,
                SimulationConfig(
                    algorithm=algorithm,
                    protocol=ProtocolConfig(timeout=timeout),
                    max_rounds=profile.max_rounds,
                ),
                profile.population,
                profile.repeats,
                base_seed=profile.base_seed,
            )
        )
    outcomes = resolve_executor(executor).run(work)
    cells: Dict[Tuple[int, str], MedianOfRuns] = {}
    for index, key in enumerate(keys):
        chunk = outcomes[index * profile.repeats : (index + 1) * profile.repeats]
        cells[key] = median_of_outcomes(chunk)
    rows: List[List[object]] = []
    for timeout in timeouts:
        greedy, hybrid = cells[(timeout, "greedy")], cells[(timeout, "hybrid")]
        rows.append(
            [
                timeout,
                greedy.median,
                hybrid.median,
                greedy.failures + hybrid.failures,
            ]
        )
    return rows


# ----------------------------------------------------------------------
# churn intensity sweep
# ----------------------------------------------------------------------

CHURN_HEADERS = [
    "leave prob",
    "offline frac (theory)",
    "steady-state satisfied",
    "worst dip",
]


def churn_sweep(
    profile: ExperimentProfile = PAPER,
    family: str = "BiCorr",
    leave_probabilities: Sequence[float] = (0.0025, 0.005, 0.01, 0.02, 0.04),
    rounds: int = 1200,
    warmup: int = 300,
    executor: Optional[SweepExecutor] = None,
) -> List[List[object]]:
    churns = [
        ChurnConfig(leave_probability=leave, rejoin_probability=0.2)
        for leave in leave_probabilities
    ]
    work = []
    for churn in churns:
        work.extend(
            repeat_items(
                family,
                SimulationConfig(
                    algorithm="hybrid",
                    max_rounds=rounds,
                    churn=churn,
                    stop_at_convergence=False,
                ),
                profile.population,
                profile.repeats,
                base_seed=profile.base_seed,
            )
        )
    outcomes = resolve_executor(executor).run(work)
    rows: List[List[object]] = []
    for index, churn in enumerate(churns):
        chunk = outcomes[index * profile.repeats : (index + 1) * profile.repeats]
        series = [o.result.satisfied_series for o in chunk if o.ok]
        means = [steady_state_mean(s, warmup) for s in series]
        dips = [worst_dip(s, warmup) for s in series]
        rows.append(
            [
                churn.leave_probability,
                round(churn.stationary_offline_fraction, 4),
                round(statistics.median(means), 3),
                round(statistics.median(dips), 3),
            ]
        )
    return rows


# ----------------------------------------------------------------------
# oracle realization comparison
# ----------------------------------------------------------------------

REALIZATION_HEADERS = ["realization", "oracle", "median rounds", "failures"]


def oracle_realization_comparison(
    profile: ExperimentProfile = PAPER,
    family: str = "Rand",
    executor: Optional[SweepExecutor] = None,
) -> List[List[object]]:
    cases: List[Tuple[str, str]] = [
        ("omniscient", "random-delay"),
        ("dht", "random-delay"),
        ("dht", "random-delay-capacity"),
        ("omniscient", "random"),
        ("random-walk", "random"),
    ]
    work = []
    for realization, oracle in cases:
        work.extend(
            repeat_items(
                family,
                SimulationConfig(
                    algorithm="hybrid",
                    oracle=oracle,
                    oracle_realization=realization,
                    max_rounds=profile.max_rounds,
                ),
                profile.population,
                profile.repeats,
                base_seed=profile.base_seed,
            )
        )
    outcomes = resolve_executor(executor).run(work)
    rows: List[List[object]] = []
    for index, (realization, oracle) in enumerate(cases):
        chunk = outcomes[index * profile.repeats : (index + 1) * profile.repeats]
        runs = median_of_outcomes(chunk)
        rows.append([realization, oracle, runs.median, runs.failures])
    return rows


# ----------------------------------------------------------------------


def main() -> None:
    from repro.experiments import figure3

    print(banner("Ablation: Hybrid algorithm under each Oracle (Fig. 3 grid)"))
    grid = figure3.run(PAPER, algorithm="hybrid")
    print(ascii_table(figure3.headers(), figure3.rows(grid)))
    print()
    print(banner("Ablation: lazy vs knee-jerk maintenance (BiCorr)"))
    print(ascii_table(MAINTENANCE_HEADERS, maintenance_comparison()))
    print()
    print(banner("Ablation: construction timeout sweep (BiCorr)"))
    print(ascii_table(TIMEOUT_HEADERS, timeout_sweep()))
    print()
    print(banner("Ablation: churn intensity sweep (BiCorr, hybrid)"))
    print(ascii_table(CHURN_HEADERS, churn_sweep()))
    print()
    print(banner("Ablation: oracle realization (Rand, hybrid)"))
    print(ascii_table(REALIZATION_HEADERS, oracle_realization_comparison()))


if __name__ == "__main__":
    main()
