"""The five benchmark workloads, as recipes over the simulator's public
entry points.

A workload is a sequence of *cells*; one cell is one seeded simulation
run in three phases the pass runner (``onepass.py``) times separately:

``generate``   workload generation, including the sufficiency repair
``construct``  ``make_simulation(...)`` / ``ServiceSoak(...)``
``run``        ``.run()`` to the result object

``--seed S`` is the only input: cell ``k`` of a multi-run workload uses
seed ``S + k`` for both its population and its simulation streams.

Why each workload exists is recorded in ``BENCHMARK.json`` (one line)
and ``README.md`` (one paragraph).  N and round counts are part of the
workload's identity and never change; ``smoke`` is a separate, tiny
scale for the self-tests only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.faults.plan import parse_fault_plan
from repro.multifeed.soak import ServiceSoak, SoakConfig, parse_timeline
from repro.sim.churn import ChurnConfig
from repro.sim.runner import SimulationConfig, make_simulation
from repro.workloads import make, rand_workload

GEO = "continuous:geo-3region"

#: A run whose final satisfied fraction is below this is broken, not slow.
#: So is a full-scale run whose availability is below its workload's
#: ``floor``: half the lowest value among 22 surveyed seeds (README,
#: *Outcomes*).
MIN_SATISFIED = 0.05


@dataclasses.dataclass(frozen=True)
class Cell:
    """One seeded simulation run of a workload."""

    label: str
    kind: str  # "sim" (make_simulation) or "soak" (ServiceSoak)
    generate: Callable[[], object]
    construct: Callable[[object], object]
    #: The paper's own traffic must converge; churned runs never fully do,
    #: and answer to an availability floor instead.
    must_converge: bool = False
    min_availability: float = 0.0
    #: Trace attach points (``layers.OPTIONAL``) this run does exercise.
    uses: Tuple[str, ...] = ()


def _sim_cell(label, generate, config, must_converge=False, min_availability=0.0) -> Cell:
    uses = ()
    if config.churn is not None:
        uses += ("churn.step",)
    if config.time_model == GEO:
        uses += ("geo.one_way_ms",)
    return Cell(
        label=label,
        kind="sim",
        generate=generate,
        construct=lambda workload: make_simulation(workload, config),
        must_converge=must_converge,
        min_availability=min_availability,
        uses=uses,
    )


def _scale_population(size: int, seed: int):
    """The sharded-oracle population: budgets a sampled directory can
    serve (latency up to 40, fanout 2..8) under a 32-slot source."""
    return rand_workload(
        size=size,
        seed=seed,
        source_fanout=32,
        max_latency=40,
        min_fanout=2,
        max_fanout=8,
    )[0]


def omni_churn_2k(seed: int, smoke: bool) -> Iterator[Cell]:
    size, rounds, floor = (200, 20, 0.0) if smoke else (2000, 80, 0.10)
    yield _sim_cell(
        f"omni/n{size}/s{seed}",
        lambda: rand_workload(size=size, seed=seed, source_fanout=4)[0],
        SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            oracle_realization="omniscient",
            seed=seed,
            churn=ChurnConfig(),
            max_rounds=rounds,
            stop_at_convergence=False,
        ),
        min_availability=floor,
    )


def sharded_churn_10k(seed: int, smoke: bool) -> Iterator[Cell]:
    size, rounds, floor = (200, 20, 0.0) if smoke else (10000, 100, 0.12)
    yield _sim_cell(
        f"sharded/n{size}/s{seed}",
        lambda: _scale_population(size, seed),
        SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            oracle_realization="sharded",
            seed=seed,
            churn=ChurnConfig(),
            max_rounds=rounds,
            stop_at_convergence=False,
        ),
        min_availability=floor,
    )


def paper_grid_120(seed: int, smoke: bool) -> Iterator[Cell]:
    size, repeats = (40, 1) if smoke else (120, 5)
    for algorithm in ("greedy", "hybrid"):
        for oracle in ("random", "random-delay"):
            for family in ("Tf1", "Rand", "BiCorr", "BiUnCorr"):
                for k in range(repeats):
                    yield _sim_cell(
                        f"grid/{algorithm}/{oracle}/{family}/s{seed + k}",
                        lambda family=family, k=k: make(
                            family, size=size, seed=seed + k
                        ),
                        SimulationConfig(
                            algorithm=algorithm,
                            oracle=oracle,
                            seed=seed + k,
                            max_rounds=8000,
                        ),
                        must_converge=True,
                    )


def service_soak_geo(seed: int, smoke: bool) -> Iterator[Cell]:
    if smoke:
        runs, consumers, rounds, warmup, floor = 1, 40, 90, 24, 0.0
        timeline = "flash@36:news:x10:ramp=3,exodus@60:news:0.4,rejoin@70:news"
        faults = "crash@50:0.15:rejoin=8,source-outage@76:4"
    else:
        runs, consumers, rounds, warmup, floor = 6, 150, 200, 40, 0.40
        timeline = "flash@60:news:x10:ramp=3,exodus@120:news:0.5,rejoin@140:news"
        faults = "crash@100:0.15:rejoin=12,source-outage@150:6"

    def generate(k: int) -> SoakConfig:
        return SoakConfig(
            feed_ids=("news", "sports", "tech"),
            consumer_count=consumers,
            seed=seed + k,
            rounds=rounds,
            warmup_rounds=warmup,
            timeline=parse_timeline(timeline),
            faults=parse_fault_plan(faults),
            time_model=GEO,
        )

    for k in range(runs):
        yield Cell(
            label=f"soak/n{consumers}/s{seed + k}",
            kind="soak",
            generate=lambda k=k: generate(k),
            construct=ServiceSoak,
            min_availability=floor,
            uses=("geo.one_way_ms",),
        )


def continuous_build_6k(seed: int, smoke: bool) -> Iterator[Cell]:
    size, ticks, floor = (200, 20, 0.0) if smoke else (6000, 80, 0.16)
    yield _sim_cell(
        f"continuous/n{size}/s{seed}",
        lambda: _scale_population(size, seed),
        SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            oracle_realization="sharded",
            seed=seed,
            max_rounds=ticks,
            stop_at_convergence=False,
            time_model=GEO,
        ),
        min_availability=floor,
    )


WORKLOADS: Dict[str, Callable[[int, bool], Iterator[Cell]]] = {
    "omni_churn_2k": omni_churn_2k,
    "sharded_churn_10k": sharded_churn_10k,
    "paper_grid_120": paper_grid_120,
    "service_soak_geo": service_soak_geo,
    "continuous_build_6k": continuous_build_6k,
}


# ----------------------------------------------------------------------
# reading a finished cell: digest, outcomes, correctness
# ----------------------------------------------------------------------


def digest_of(fields: object) -> str:
    """SHA-256 of a result's seeded fields in canonical JSON."""
    text = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _censored(value: Optional[float], limit: float) -> float:
    """A rounds-to-X figure that never happened counts the whole run."""
    return float(limit if value is None else value)


def _optional(read: Callable[[], float]) -> Optional[float]:
    """A counter the result object does not carry, read off the engine:
    ``None`` (the metric reads null) once a refactor moves it, so the
    timed passes depend on the public entry points only."""
    try:
        return read()
    except (AttributeError, KeyError, TypeError):
        return None


def read_sim(engine, result) -> Dict[str, object]:
    """Outcome numbers of one ``make_simulation(...).run()``."""
    fields = dataclasses.asdict(result)
    fields.pop("phase_timings", None)  # wall-clock, excluded from equality
    quality = result.final_quality
    return {
        "digest": digest_of(fields),
        "overlays": [engine.overlay],
        "converged": result.converged,
        "rounds": result.rounds_run,
        "events": result.events_fired,
        "satisfied_fraction": quality.satisfied_fraction,
        "availability": result.availability,
        "construction_rounds": _censored(
            result.construction_rounds, result.rounds_run
        ),
        "staleness_ms_p99": result.staleness_ms_p99 or 0.0,
        "attaches": result.attaches,
        "detaches": result.detaches,
        "oracle_hits": _optional(lambda: engine.oracle.hits),
        "oracle_misses": result.oracle_misses,
        "churn_events": result.departures + result.rejoins,
        "faults_injected": result.fault_events,
    }


def read_soak(soak, summary) -> Dict[str, object]:
    """Outcome numbers of one ``ServiceSoak(...).run()``."""
    overlays = list(soak.system.overlays.values())
    return {
        "digest": digest_of(dataclasses.asdict(summary)),
        "overlays": overlays,
        "converged": True,
        "rounds": summary.rounds,
        "events": _optional(
            lambda: sum(e.scheduler.fired for e in soak.engines.values())
        ),
        "satisfied_fraction": statistics.fmean(
            (f.satisfied / f.online) if f.online else 1.0 for f in summary.feeds
        ),
        "availability": summary.availability,
        "construction_rounds": _censored(
            summary.hot_reconverge_rounds, summary.rounds
        ),
        "recover_rounds": _censored(summary.time_to_recover, summary.rounds),
        "staleness_p99": summary.hot_p99_after,
        "items_delivered": sum(f.delivered for f in summary.feeds),
        "attaches": sum(o.attach_count for o in overlays),
        "detaches": sum(o.detach_count for o in overlays),
        "oracle_hits": _optional(
            lambda: sum(o.hits for o in soak.system.oracles.values())
        ),
        "oracle_misses": _optional(
            lambda: sum(o.misses for o in soak.system.oracles.values())
        ),
        "churn_events": summary.flash_joined + summary.exodus_departures,
        "faults_injected": summary.faults_injected,
    }


def check_cell(cell: Cell, outcome: Dict[str, object]) -> List[str]:
    """Why this finished run counts as failed (empty list: it passed).

    A soak that is still recovering when its 200 rounds end is an
    outcome, not a failure: ``recover_rounds`` then reports the whole
    run length (a survey of 45 seeds found four such runs, and the driver
    may pass any seed)."""
    problems = []
    for overlay in outcome.pop("overlays"):
        try:
            overlay.check_integrity()
        except Exception as exc:  # any invariant error is a failed run
            problems.append(f"check_integrity: {type(exc).__name__}: {exc}")
    if cell.must_converge and not outcome["converged"]:
        problems.append(f"did not converge in {outcome['rounds']} rounds")
    fraction = outcome["satisfied_fraction"]
    if not math.isfinite(fraction) or fraction < MIN_SATISFIED:
        problems.append(f"satisfied_fraction {fraction:.3f} < {MIN_SATISFIED}")
    if outcome["availability"] < cell.min_availability:
        problems.append(
            f"availability {outcome['availability']:.3f} < {cell.min_availability}"
        )
    return problems
