"""The multi-feed service soak benchmark family.

One registered benchmark, ``soak.service``: the full
:class:`~repro.multifeed.soak.ServiceSoak` composition — many feeds
over one population with the reuse-biased oracle, bursty publishing,
a flash crowd that multiplies the hot feed's audience 10× within a few
rounds, a mass exodus, and a correlated fault plan — run to its
:class:`~repro.multifeed.soak.SoakSummary`.

The benchmark *gates*, not just measures: it hard-fails unless the
flash-crowded feed re-converges after the surge and its post-recovery
p99 staleness returns inside the configured SLO.  Every gated metric is
seeded-deterministic (tolerance 0.0), so the CI perf-gate catches any
behavioural drift in the soak composition, not just slowdowns.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Tuple

from repro.bench.registry import BenchContext, BenchResult, Metric, register
from repro.faults.plan import parse_fault_plan
from repro.multifeed.soak import SoakConfig, parse_timeline, run_soak


def soak_config(quick: bool) -> SoakConfig:
    """The soak at one scale (quick: small population and a short
    service phase; full: the 10x surge over a real audience)."""
    if quick:
        consumers, rounds, warmup = 40, 90, 24
        timeline = "flash@36:news:x10:ramp=3,exodus@60:news:0.4"
        faults = "source-outage@48:4"
    else:
        consumers, rounds, warmup = 150, 200, 40
        timeline = (
            "flash@60:news:x10:ramp=3,exodus@120:news:0.5,rejoin@140:news"
        )
        faults = "crash@100:0.15:rejoin=12,source-outage@150:6"
    return SoakConfig(
        consumer_count=consumers,
        rounds=rounds,
        warmup_rounds=warmup,
        timeline=parse_timeline(timeline),
        faults=parse_fault_plan(faults),
    )


@register(
    "soak.service",
    tags=("soak", "multifeed", "resilience", "perf"),
    metrics={
        "hot_reconverge_rounds": Metric(
            unit="rounds",
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="rounds for the flash-crowded feed to satisfy "
            "its audience again (seeded, exact)",
        ),
        "hot_p99_after": Metric(
            unit="delay units",
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="hot feed p99 staleness after re-convergence",
        ),
        "availability": Metric(
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="mean satisfied fraction over feeds and "
            "service rounds",
        ),
        "time_to_recover": Metric(
            unit="rounds",
            higher_is_better=False,
            tolerance=0.0,
            deterministic=True,
            description="rounds from the last disruption until every "
            "feed is back above the recovery threshold",
        ),
        "reuse_fraction": Metric(
            higher_is_better=True,
            tolerance=0.0,
            deterministic=True,
            description="fraction of partnerships carrying several feeds",
        ),
        "rounds_per_sec": Metric(
            unit="rounds/s",
            higher_is_better=True,
            tolerance=0.35,
            description="service-soak round throughput",
        ),
    },
    description="Multi-feed service soak: 10x flash crowd, exodus, "
    "correlated faults, per-feed staleness SLOs",
)
def soak_service(ctx: BenchContext) -> BenchResult:
    return gated_soak(soak_config(ctx.quick))


def gated_soak(config: SoakConfig) -> BenchResult:
    """Run one soak and gate it: the hot feed must re-converge with its
    p99 staleness back inside the SLO, and the system must recover."""
    p99_slo = float(config.max_latency + 2)
    start = time.perf_counter()
    summary = run_soak(config)
    elapsed = time.perf_counter() - start

    failures: Tuple[str, ...] = ()
    metrics = {
        "availability": summary.availability,
        "reuse_fraction": summary.reuse.reuse_fraction,
        "rounds_per_sec": config.rounds / elapsed,
    }
    problems = []
    if summary.hot_reconverge_rounds is None:
        problems.append(
            f"hot feed '{summary.hot_feed}' never re-converged after the "
            f"flash crowd (+{summary.flash_joined} joiners)"
        )
    else:
        metrics["hot_reconverge_rounds"] = float(summary.hot_reconverge_rounds)
        metrics["hot_p99_after"] = summary.hot_p99_after
        if summary.hot_p99_after > p99_slo:
            problems.append(
                f"hot feed p99 staleness {summary.hot_p99_after:.2f} stayed "
                f"outside the SLO ({p99_slo:.2f} delay units) after recovery"
            )
    if summary.time_to_recover is None:
        problems.append(
            "the system never recovered after its last disruption "
            f"(round {summary.last_disruption_round})"
        )
    else:
        metrics["time_to_recover"] = float(summary.time_to_recover)
    failures = tuple(problems)
    detail = {
        "benchmark": "soak.service",
        "consumers": config.consumer_count,
        "rounds": config.rounds,
        "warmup_rounds": config.warmup_rounds,
        "seed": config.seed,
        "p99_slo": p99_slo,
        "seconds": elapsed,
        "summary": dataclasses.asdict(summary),
    }
    return BenchResult(metrics=metrics, detail=detail, failures=failures)
