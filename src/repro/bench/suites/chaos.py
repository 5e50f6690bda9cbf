"""Chaos benchmarks: the layered-fault soak and the backoff A/B.

Two registered benchmarks, run at full scale with ``repro bench run
chaos_soak.soak chaos_soak.backoff_ab --workers 2``:

``chaos_soak.soak``
    A long run under a layered fault plan — a 20 % correlated crash
    whose victims rejoin as a burst, a source outage, and a stale
    oracle view — with ``Overlay.check_integrity()`` asserted every
    ``k`` rounds.  Hard-fails if the overlay never re-converges after
    the last fault (integrity violations raise inside the run).

``chaos_soak.backoff_ab``
    A mass-crash-and-rejoin burst landing inside a source outage — the
    thundering herd — run with and without the exponential
    source-contact backoff.  Hard-fails if backoff stops shedding
    repeat source contacts or regresses initial convergence beyond the
    allowed slack.  The two arms are independent seeded runs, so
    ``workers`` ≥ 2 fans them out through :mod:`repro.par`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.core.protocol import ProtocolConfig
from repro.faults import FaultPlan, MassCrash, SourceOutage, StaleOracleView
from repro.obs import RecordingProbe
from repro.par import Task, make_executor
from repro.sim.runner import Simulation, SimulationConfig
from repro.workloads.random_workload import rand_workload


def run_soak(
    population: int,
    seed: int,
    algorithm: str,
    oracle: str,
    max_rounds: int,
    crash_round: int,
    integrity_every: int,
) -> dict:
    """One long run under the layered fault plan; integrity-checked."""
    plan = FaultPlan.of(
        MassCrash(round=crash_round, fraction=0.2, rejoin_after=20),
        SourceOutage(round=crash_round + 90, duration=12),
        StaleOracleView(round=crash_round + 160, duration=15, staleness=6),
    )
    workload, _ = rand_workload(size=population, seed=seed, source_fanout=4)
    config = SimulationConfig(
        algorithm=algorithm,
        oracle=oracle,
        seed=seed,
        faults=plan,
        max_rounds=max_rounds,
        stop_at_convergence=False,
    )
    simulation = Simulation(workload, config)
    start = time.perf_counter()
    integrity_checks = 0
    while simulation.now < max_rounds:
        simulation.run_round()
        if simulation.now % integrity_every == 0:
            simulation.overlay.check_integrity()
            integrity_checks += 1
    elapsed = time.perf_counter() - start
    result = simulation.result()
    return {
        "plan": [
            "mass-crash 20% + rejoin burst",
            "source outage",
            "stale oracle view",
        ],
        "rounds": result.rounds_run,
        "seconds": elapsed,
        "rounds_per_sec": result.rounds_run / elapsed,
        "integrity_checks": integrity_checks,
        "fault_events": result.fault_events,
        "availability": result.availability,
        "time_to_recover": result.time_to_recover,
        "recovery_series": result.recovery_series,
        "departures": result.departures,
        "rejoins": result.rejoins,
        "satisfied_fraction": result.final_quality.satisfied_fraction,
    }


def run_burst(
    population: int,
    seed: int,
    algorithm: str,
    oracle: str,
    crash_round: int,
    rejoin_after: int,
    window: int,
    backoff: bool,
) -> dict:
    """One mass-crash-and-rejoin run; returns source-contact pressure.

    The rejoin burst lands inside a source outage, so every herd member
    keeps failing its direct contact — the scenario the backoff
    hardening exists for.  Without backoff each one re-hammers the
    source every ``timeout`` rounds for the whole outage.
    """
    rejoin_round = crash_round + rejoin_after
    plan = FaultPlan.of(
        MassCrash(round=crash_round, fraction=0.4, rejoin_after=rejoin_after),
        SourceOutage(round=rejoin_round, duration=window),
    )
    workload, _ = rand_workload(size=population, seed=seed, source_fanout=4)
    probe = RecordingProbe()
    config = SimulationConfig(
        algorithm=algorithm,
        oracle=oracle,
        seed=seed,
        protocol=ProtocolConfig(source_backoff=backoff),
        faults=plan,
        max_rounds=crash_round + rejoin_after + window,
        stop_at_convergence=False,
        probe=probe,
    )
    simulation = Simulation(workload, config)
    result = simulation.run()
    contacts = probe.events_of("source-contact")
    in_window = [
        e for e in contacts if rejoin_round <= e.round < rejoin_round + window
    ]
    per_round: Dict[int, int] = {}
    per_node: Dict[object, int] = {}
    for event in in_window:
        per_round[event.round] = per_round.get(event.round, 0) + 1
        per_node[event.node] = per_node.get(event.node, 0) + 1
    return {
        "backoff": backoff,
        "converged_round": result.construction_rounds,
        "contacts_total": len(contacts),
        "contacts_in_window": len(in_window),
        "peak_contacts_per_round": max(per_round.values()) if per_round else 0,
        # Contacts beyond each node's first: the re-hammering that backoff
        # exists to shed.  (A node's *first* failing contact is unavoidable
        # load either way, and which nodes end up herding varies between
        # the two runs once their trajectories diverge.)
        "repeat_contacts_in_window": sum(c - 1 for c in per_node.values()),
        "failures_in_window": sum(
            1 for e in in_window if e.outcome in ("reject", "outage")
        ),
        "time_to_recover": result.time_to_recover,
    }


def run_backoff_ab(
    population: int,
    seed: int,
    algorithm: str,
    oracle: str,
    crash_round: int,
    window: int,
    workers: int = 0,
) -> Tuple[dict, dict, List[str]]:
    """Both A/B arms plus the script's pass/fail checks."""
    burst_args = (
        population, seed, algorithm, oracle, crash_round, 10, window,
    )
    arms = make_executor(workers).run_tasks(
        [
            Task(run_burst, burst_args + (False,), label="baseline"),
            Task(run_burst, burst_args + (True,), label="backoff"),
        ]
    )
    failures: List[str] = []
    for arm in arms:
        if not arm.ok:
            failures.append(f"A/B arm failed: {arm.error}")
    if failures:
        return {}, {}, failures
    baseline, hardened = arms[0].value, arms[1].value
    if not (
        hardened["repeat_contacts_in_window"]
        < baseline["repeat_contacts_in_window"]
    ):
        failures.append(
            "backoff did not reduce repeat source contacts in the rejoin window"
        )
    # Convergence happens before the fault fires, so the hardened run may
    # only differ through backoff on ordinary construction-time rejects;
    # allow a small slack but fail on a real regression.
    if baseline["converged_round"] is not None:
        slack = max(5, baseline["converged_round"] // 4)
        if hardened["converged_round"] is None:
            failures.append("backoff run failed to converge at all")
        elif hardened["converged_round"] > baseline["converged_round"] + slack:
            failures.append(
                "backoff regressed initial convergence beyond the allowed slack"
            )
    return baseline, hardened, failures


def _scale(ctx: BenchContext) -> Tuple[int, int, int]:
    """(population, max_rounds, crash_round) at the context's scale."""
    return (120, 220, 40) if ctx.quick else (500, 320, 100)


@register(
    "chaos_soak.soak",
    tags=("faults", "resilience", "perf"),
    metrics={
        "rounds_per_sec": Metric(
            unit="rounds/s",
            higher_is_better=True,
            tolerance=0.35,
            description="fault-injected round throughput",
        ),
        "availability": Metric(
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="fraction of node-rounds satisfied (seeded, exact)",
        ),
        "time_to_recover": Metric(
            unit="rounds",
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="rounds from last fault to full re-convergence",
        ),
    },
    description="Layered fault-plan soak with periodic integrity checks",
)
def chaos_soak_soak(ctx: BenchContext) -> BenchResult:
    population, max_rounds, crash_round = _scale(ctx)
    seed, algorithm, oracle = 0, "hybrid", "random-delay"
    integrity_every = 10
    soak = run_soak(
        population, seed, algorithm, oracle, max_rounds, crash_round,
        integrity_every,
    )
    failures: Tuple[str, ...] = ()
    metrics = {
        "rounds_per_sec": soak["rounds_per_sec"],
        "availability": soak["availability"],
    }
    if soak["time_to_recover"] is None:
        failures = ("soak never re-converged after its faults",)
    else:
        metrics["time_to_recover"] = float(soak["time_to_recover"])
    detail = {
        "benchmark": "chaos_soak",
        "population": population,
        "max_rounds": max_rounds,
        "crash_round": crash_round,
        "seed": seed,
        "algorithm": algorithm,
        "oracle": oracle,
        "soak": soak,
    }
    return BenchResult(metrics=metrics, detail=detail, failures=failures)


@register(
    "chaos_soak.backoff_ab",
    tags=("faults", "resilience", "hardening"),
    metrics={
        "contact_reduction": Metric(
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="share of repeat source contacts shed by backoff",
        ),
        "repeat_contacts_backoff": Metric(
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="repeat contacts in the window, hardened arm",
        ),
        "peak_contacts_per_round": Metric(
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="worst per-round source load, hardened arm",
        ),
    },
    description="Thundering-herd A/B: source-contact backoff on vs off",
)
def chaos_backoff_ab(ctx: BenchContext) -> BenchResult:
    population, _, crash_round = _scale(ctx)
    seed, algorithm, oracle = 0, "hybrid", "random-delay"
    window = 40
    # The backoff run converges a little later than the baseline (first
    # failures double the retry delay during construction too), so the
    # A/B's crash lands a bit after the soak's to stay post-convergence
    # in both modes.
    burst_crash = crash_round + 20
    baseline, hardened, failures = run_backoff_ab(
        population, seed, algorithm, oracle, burst_crash, window,
        workers=ctx.workers,
    )
    metrics = {}
    contact_reduction = None
    if baseline and hardened:
        if baseline["repeat_contacts_in_window"]:
            contact_reduction = (
                1
                - hardened["repeat_contacts_in_window"]
                / baseline["repeat_contacts_in_window"]
            )
            metrics["contact_reduction"] = contact_reduction
        metrics["repeat_contacts_backoff"] = float(
            hardened["repeat_contacts_in_window"]
        )
        metrics["peak_contacts_per_round"] = float(
            hardened["peak_contacts_per_round"]
        )
    detail = {
        "benchmark": "chaos_soak.backoff_ab",
        "population": population,
        "crash_round": burst_crash,
        "seed": seed,
        "algorithm": algorithm,
        "oracle": oracle,
        "window": window,
        "baseline": baseline or None,
        "backoff": hardened or None,
        "contact_reduction": contact_reduction,
    }
    return BenchResult(metrics=metrics, detail=detail, failures=tuple(failures))
