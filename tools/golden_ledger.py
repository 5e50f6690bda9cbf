#!/usr/bin/env python
"""The golden ledger: committed digests of seeded outcomes.

Each entry pins one seeded run, keyed by ``(scenario, seed)``, with the
16-hex SHA-256 of its result in canonical JSON: ``dataclasses.asdict``,
sorted keys, ``repr`` for anything JSON cannot hold.  Fields a result
excludes from its own equality (``SimulationResult.phase_timings``, the
wall-clock breakdown) are left out, so the digest covers exactly what
``==`` compares.

**Rows are spec strings.**  Every single-run row is one ``(scenario,
seed, spec)`` entry of :data:`RUNS`: a :class:`repro.spec.RunSpec` in
its text form, pinned as ``repro.spec.run(RunSpec.parse(spec), seed)``
— the same call the CLI and the sweep worker make.  They cover a
churned N=36 construction (greedy/hybrid under the four paper oracles
and six fault plans, the four distributed oracle realizations, the
sharded one under faults), the continuous clock on ``geo-3region``
static and under churn plus faults, asynchrony under churn, a static
greedy build stopped at convergence (the paper grid's path), three
multi-feed service soaks (one on the continuous clock, the one row
whose feed delivery runs on a per-edge hop-delay model; one under
leave, partition, stale-view and oracle-outage windows), two faulted
two-path multipath builds (a crash; the same four window and leave
faults, each window timed to land while peers still query the oracle)
and two churned two-path builds (churn alone; churn plus a crash), where
a churned peer leaves and rejoins both paths at once.  Three rows stay
code: a reuse-biased
multi-feed system driven by ``run()`` and by ``run_sequential()``, and
a corrupted overlay's self-stabilization (each with its sorted final
parent maps).

Last, twelve ``quick/<record>`` rows keep the seeded outcomes of the
former quick benchmark suite, each the dict of one record's exact
metrics.  The plain-run records (``chain_index.churn``,
``chaos_soak.soak``, ``scale.columnar``, ``time.continuous``,
``soak.service``) read them off spec runs; the figure, backoff,
multipath, obs and stabilize records drive their harnesses in code.

A change that only makes the code faster or smaller leaves
``tests/golden/ledger.json`` byte-identical.  A change that moves an
outcome on purpose re-pins it with this script, as one reviewed diff of
that file, with the reason in ``CHANGES.md``.  ``tests/test_golden_ledger.py``
recomputes every entry in tier-1.

Usage::

    PYTHONPATH=src python tools/golden_ledger.py          # rewrite the ledger
    PYTHONPATH=src python tools/golden_ledger.py --check  # exit 1 on any difference
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import operator
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.spec import RunSpec, execute, run

LEDGER_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "ledger.json"

ORACLES = ("random", "random-capacity", "random-delay", "random-delay-capacity")
FAULT_PLANS = (
    "crash@20:0.3:rejoin=10",
    "leave@15:0.2, crash@40:0.15",
    "oracle-outage@10:8",
    "source-outage@25:6",
    "partition@12:15:2",
    "stale-view@10:12:4",
)
REALIZATIONS = (
    ("dht", "random-delay"), ("sharded", "random-delay"),
    ("sharded", "random-delay-capacity"), ("random-walk", "random"),
)

#: A churned N=36 construction, hybrid x Random-Delay unless the row's
#: own keys (``{}``) say otherwise, run for its whole round budget (as a
#: fault plan does by itself); N=40 builds; 36 consumers on three feeds.
CHURN36 = "size=36;workload-seed=5;{};churn=1;rounds=120;stop=budget"
FAULTED36 = "size=36;workload-seed=5;{};churn=1;faults={};rounds=120"
N40 = "size=40;workload-seed=5;{}"
SOAK36 = "size=36;feeds=news,sports,tech;{};warmup=20;rounds=70"
GEO = "time-model=continuous:geo-3region"

#: Every single-run row: ``(scenario, seed, spec)``; the pinned value is
#: ``repro.spec.run(RunSpec.parse(spec), seed)``.
RUNS: List[Tuple[str, int, str]] = [
    *(
        (f"construction/churn/{a}/{o}", 17, CHURN36.format(f"algorithm={a};oracle={o}"))
        for a in ("greedy", "hybrid") for o in ORACLES
    ),
    *(
        (f"construction/faults/{a}/{p}", 17, FAULTED36.format(f"algorithm={a}", p))
        for a in ("greedy", "hybrid") for p in FAULT_PLANS
    ),
    *(
        (f"construction/realization/{r}/{o}", 17,
         CHURN36.format(f"oracle={o};oracle-realization={r}"))
        for r, o in REALIZATIONS
    ),
    ("construction/sharded+faults", 17, FAULTED36.format(
        "oracle-realization=sharded", "crash@18:0.25:rejoin=8, oracle-outage@30:5")),
    ("continuous/static/geo-3region", 17, N40.format(f"{GEO};rounds=150")),
    ("continuous/churn+faults/geo-3region", 17, N40.format(
        f"{GEO};churn=1;faults=crash@20:0.2:rejoin=10, source-outage@35:4;rounds=80")),
    ("construction/asynchrony/churn", 17,
     "size=36;workload-seed=5;churn=1;asynchrony=1:4;rounds=120;stop=budget"),
    ("construction/static/greedy", 17, N40.format("algorithm=greedy;rounds=8000")),
    ("soak/quick", 11, SOAK36.format(
        "timeline=flash@30:news:x4:ramp=2,exodus@50:sports:0.4,rejoin@60:sports")),
    ("soak/geo-3region", 11, SOAK36.format(
        f"{GEO};faults=crash@40:0.15:rejoin=8;"
        "timeline=flash@30:news:x4:ramp=2,exodus@45:news:0.4,rejoin@55:news")),
    ("multipath/2-paths+crash", 5,
     "size=30;workload-seed=5;faults=crash@40:0.2:rejoin=10;paths=2;rounds=200"),
    ("multipath/2-paths+leave+partition+stale", 5,
     "size=30;workload-seed=5;faults=leave@30:0.2:rejoin=10, partition@31:20:2, "
     "stale-view@40:10:3, oracle-outage@42:5;paths=2;rounds=200"),
    ("multipath/2-paths+churn", 5,
     "size=40;workload-seed=5;churn=1;paths=2;rounds=200;stop=budget"),
    ("multipath/2-paths+churn+crash", 5,
     "size=40;workload-seed=5;churn=1;faults=crash@40:0.2:rejoin=10;paths=2;"
     "rounds=200;stop=budget"),
    ("soak/leave+partition+stale", 11, SOAK36.format(
        "faults=leave@25:0.2:rejoin=8, partition@26:10:2, stale-view@31:8:3, "
        "oracle-outage@40:4;timeline=flash@30:news:x4:ramp=2")),
]

#: One ledger scenario: ``(name, seed, run)``; ``run(seed)`` returns the
#: value whose digest is pinned.
Scenario = Tuple[str, int, Callable[[int], object]]


def _run(spec: str, seed: int):
    return run(RunSpec.parse(spec), seed)


def digest(value: object) -> str:
    """16-hex SHA-256 of ``value`` in canonical JSON.

    A dataclass is taken as ``dataclasses.asdict`` minus its top-level
    ``compare=False`` fields; anything else must already be JSON-shaped.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.asdict(value)
        for field in dataclasses.fields(value):
            if not field.compare:
                fields.pop(field.name)
        value = fields
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _multifeed(sequential: bool):
    """Three feeds over 30 shared consumers with the reuse-biased oracle,
    built interleaved (``run()``) or one feed after another."""

    def build(seed: int):
        from repro.multifeed.reuse import reuse_oracle_factory
        from repro.multifeed.system import MultiFeedSystem

        system = MultiFeedSystem(
            ["news", "sports", "tech"],
            consumer_count=30,
            seed=seed,
            oracle_factory=reuse_oracle_factory(0.9),
        )
        if sequential:
            system.run_sequential(max_rounds_per_feed=2000)
        else:
            system.run(max_rounds=2000)
        return {
            "converged": system.convergence_by_feed(),
            "rounds": system.now,
            "parents": {
                feed: sorted(
                    (n.name, n.parent.name if n.parent else None)
                    for n in overlay.consumers
                )
                for feed, overlay in system.overlays.items()
            },
        }

    return build


def _restabilized(build_seed, algorithm, realization, corrupt_seed, **corruption):
    """Converge an N=24 ``Rand`` overlay (``build_seed`` seeds both the
    draw and the run), corrupt it with ``corrupt_seed`` and stabilize it
    again: ``(overlay, outcome)``."""
    from repro.core.tree import Overlay
    from repro.stabilize import corrupt_overlay, stabilize
    from repro.stabilize.harness import converge
    from repro.workloads import make

    workload = make("Rand", size=24, seed=build_seed)
    overlay = Overlay(source_fanout=workload.source_fanout)
    overlay.add_population(workload.population)
    built, _ = converge(
        overlay,
        algorithm=algorithm,
        realization=realization,
        seed=build_seed,
        max_rounds=4000,
    )
    if not built:
        raise RuntimeError("construction must converge before corruption")
    corrupt_overlay(overlay, random.Random(corrupt_seed), **corruption)
    return overlay, stabilize(
        overlay, algorithm=algorithm, realization=realization, seed=corrupt_seed
    )


def _stabilize(seed: int):
    overlay, outcome = _restabilized(3, "hybrid", "omniscient", seed)
    return {
        "outcome": dataclasses.asdict(outcome),
        "parents": sorted(
            (n.name, n.parent.name if n.parent else None)
            for n in overlay.consumers
        ),
    }


# ----------------------------------------------------------------------
# quick/*: the seeded outcomes of the former quick benchmark suite, one
# row per record, each the dict of that record's exact metrics.
# ----------------------------------------------------------------------


def _smoke_profile(seed: int):
    """The figure grids' smoke scale: N=30, two repeats."""
    from repro.experiments.config import ExperimentProfile

    return ExperimentProfile(
        name="smoke", population=30, repeats=2, max_rounds=800, base_seed=seed
    )


def _quick_figure2(seed: int):
    from repro.experiments import figure2

    summaries = figure2.run(
        _smoke_profile(seed), repeats=3, families=("Rand", "BiUnCorr")
    )
    return {f"rounds.{family}": s.median for family, s in summaries.items()}


def _quick_figure3(seed: int):
    from repro.experiments import figure3

    grid = figure3.run(
        _smoke_profile(seed),
        families=("Rand", "BiCorr"),
        oracles=("random", "random-delay"),
    )
    return {f"rounds.{f}.{o}": runs.median for (f, o), runs in grid.items()}


def _quick_figure4(seed: int):
    from repro.experiments import figure4

    grid = figure4.run(_smoke_profile(seed))
    return {f"rounds.{a}.{r}": runs.median for (a, r), runs in grid.items()}


#: An N=300 churned run of 8 rounds over ``Rand`` with source fanout 4.
CHURN300 = "size=300;source-fanout=4;churn=1;rounds=8;stop=budget"
#: ``Rand`` with slack a sampled directory can serve (latency budgets up
#: to 40, fanout 2..8, source fanout 32), on the sharded directory, run
#: for its whole round budget: ``{}`` is the size, ``{}`` the rest.
SLACK = (
    "size={};source-fanout=32;max-latency=40;min-fanout=2;"
    "oracle-realization=sharded;{};stop=budget"
)
#: The chaos soak's layered plan over N=120: a 20 % crash rejoining as a
#: burst, a source outage and a stale oracle view.
CHAOS_PLAN = "crash@40:0.2:rejoin=20, source-outage@130:12, stale-view@200:15:6"
CHAOS = f"size=120;source-fanout=4;faults={CHAOS_PLAN};rounds=220"
#: The service soak at quick scale: 40 consumers, a 10x flash crowd on
#: the hot feed, its exodus and a source outage.
SOAK40 = (
    "size=40;feeds=news,sports,tech;faults=source-outage@48:4;"
    "timeline=flash@36:news:x10:ramp=3,exodus@60:news:0.4;warmup=24;rounds=90"
)


def _read(spec: str, *paths: str) -> Callable[[int], Dict[str, object]]:
    """A quick row read off one spec run: the value at each attribute
    path of its result, keyed by the path's last name."""

    def row(seed: int) -> Dict[str, object]:
        result = _run(spec, seed)
        return {p.rsplit(".", 1)[-1]: operator.attrgetter(p)(result) for p in paths}

    return row


def _quick_scale(seed: int):
    build = _run(SLACK.format(2000, "rounds=60"), seed)
    churned = _run(SLACK.format(2000, "churn=1;rounds=30"), seed)
    return {
        "satisfied_fraction.build.n2000": build.final_quality.satisfied_fraction,
        "satisfied_fraction.churn.n2000": churned.final_quality.satisfied_fraction,
    }


def _quick_obs_overhead(seed: int):
    """Events a recording probe captures and samples the flight
    recorder holds on one N=300 churned run of 8 rounds."""
    from repro.obs.health import HealthConfig
    from repro.obs.probe import RecordingProbe

    spec = RunSpec.parse(CHURN300)
    probe = RecordingProbe()
    run(spec, seed, probe)
    config = spec.config(seed, health=HealthConfig(), attribution=True)
    ring, _ = execute(spec.make_workload(seed), config)
    return {
        "events_total": len(probe.events),
        "health_samples": len(ring.health.samples),
    }


#: The thundering herd: 40 % of N=120 crash at round 60 and rejoin at
#: round 70 as a burst, straight into a 40-round source outage.
HERD_REJOIN, HERD_WINDOW = 70, 40


def thundering_herd(seed: int, backoff: bool) -> Dict[str, object]:
    """One arm of the source-backoff A/B: the herd's source contacts
    inside the outage window, and the round construction converged."""
    from repro.core.protocol import ProtocolConfig
    from repro.obs.probe import RecordingProbe

    spec = RunSpec.parse(
        f"size=120;source-fanout=4;faults=crash@60:0.4:rejoin=10, "
        f"source-outage@{HERD_REJOIN}:{HERD_WINDOW};"
        f"rounds={HERD_REJOIN + HERD_WINDOW}"
    )
    probe = RecordingProbe()
    # Source backoff alone: the spec's `harden` also requeues referrals.
    config = spec.config(seed).with_(protocol=ProtocolConfig(source_backoff=backoff))
    _, result = execute(spec.make_workload(seed), config, probe)
    per_round: Dict[int, int] = {}
    per_node: Dict[object, int] = {}
    for event in probe.events_of("source-contact"):
        if HERD_REJOIN <= event.round < HERD_REJOIN + HERD_WINDOW:
            per_round[event.round] = per_round.get(event.round, 0) + 1
            per_node[event.node] = per_node.get(event.node, 0) + 1
    return {
        "converged_round": result.construction_rounds,
        # Contacts beyond each node's first: the re-hammering backoff
        # exists to shed.
        "repeat_contacts": sum(c - 1 for c in per_node.values()),
        "peak_contacts_per_round": max(per_round.values(), default=0),
    }


def _quick_backoff_ab(seed: int):
    baseline = thundering_herd(seed, backoff=False)
    hardened = thundering_herd(seed, backoff=True)
    return {
        "contact_reduction": 1
        - hardened["repeat_contacts"] / baseline["repeat_contacts"],
        "repeat_contacts_backoff": hardened["repeat_contacts"],
        "peak_contacts_per_round": hardened["peak_contacts_per_round"],
    }


def _quick_multipath(seed: int):
    """Delivered fraction per (k paths, failed fraction) at one total
    fanout budget, and k=2's worst gain over k=1."""
    from repro.multipath import delivery_under_failures
    from repro.workloads import make

    workload = make("Rand", size=40, seed=seed)
    rows = {
        paths: delivery_under_failures(
            workload, paths=paths, failure_fractions=[0.1, 0.3], seed=seed,
            trials=5,
        )
        for paths in (1, 2, 3)
    }
    out: Dict[str, float] = {
        f"delivered.k{paths}.f{round(row.failed_fraction * 100)}": (
            row.delivered_fraction
        )
        for paths, k_rows in rows.items()
        for row in k_rows
    }
    out["k2_gain_min"] = min(
        two.delivered_fraction - one.delivered_fraction
        for one, two in zip(rows[1], rows[2])
    )
    return out


def _quick_stabilize(seed: int):
    """Recovery rounds from corruption seed 7 (intensity 0.25) of a
    converged N=24 overlay, greedy/hybrid x omniscient/sharded; ``None``
    for a cell that misses its round bound."""
    out = {}
    for algorithm in ("greedy", "hybrid"):
        for realization in ("omniscient", "sharded"):
            _, outcome = _restabilized(seed, algorithm, realization, 7, intensity=0.25)
            out[f"rounds.{algorithm}.{realization}"] = (
                outcome.rounds if outcome.converged else None
            )
    return out


QUICK: List[Scenario] = [
    ("quick/chain_index.churn", 0, _read(CHURN300, "final_quality.satisfied_fraction")),
    ("quick/chaos_soak.backoff_ab", 0, _quick_backoff_ab),
    ("quick/chaos_soak.soak", 0, _read(CHAOS, "availability", "time_to_recover")),
    ("quick/figure2.spread", 0, _quick_figure2),
    ("quick/figure3.oracle_grid", 0, _quick_figure3),
    ("quick/figure4.greedy_vs_hybrid", 0, _quick_figure4),
    ("quick/multipath.avail", 2, _quick_multipath),
    ("quick/obs.overhead", 0, _quick_obs_overhead),
    ("quick/scale.columnar", 0, _quick_scale),
    ("quick/soak.service", 0, _read(
        SOAK40, "hot_reconverge_rounds", "hot_p99_after", "availability",
        "time_to_recover", "reuse.reuse_fraction")),
    ("quick/stabilize.converge", 3, _quick_stabilize),
    ("quick/time.continuous", 0, _read(
        SLACK.format(600, f"{GEO};rounds=40"), "events_fired", "staleness_ms_p50",
        "staleness_ms_p99", "final_quality.satisfied_fraction")),
]


def scenarios() -> List[Scenario]:
    """Every ledger scenario, in ledger order."""
    return [
        *((name, seed, functools.partial(_run, text)) for name, seed, text in RUNS),
        ("multifeed/run/reuse", 13, _multifeed(sequential=False)),
        ("multifeed/run_sequential/reuse", 13, _multifeed(sequential=True)),
        ("stabilize/hybrid/omniscient", 99, _stabilize),
        *QUICK,
    ]


def compute(names: Optional[List[str]] = None) -> Dict[str, Dict[str, str]]:
    """``{scenario: {seed: digest}}`` for the named scenarios (all by
    default)."""
    ledger: Dict[str, Dict[str, str]] = {}
    for name, seed, run in scenarios():
        if names is None or name in names:
            ledger.setdefault(name, {})[str(seed)] = digest(run(seed))
    return ledger


def render(ledger: Dict[str, Dict[str, str]]) -> str:
    """The ledger file's exact text."""
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def load(path: Path = LEDGER_PATH) -> Dict[str, Dict[str, str]]:
    return json.loads(path.read_text(encoding="utf-8"))


def diff(
    recorded: Dict[str, Dict[str, str]], computed: Dict[str, Dict[str, str]]
) -> List[str]:
    """One line per (scenario, seed) that differs between two ledgers."""
    lines = []
    for name in sorted(set(recorded) | set(computed)):
        old, new = recorded.get(name, {}), computed.get(name, {})
        for seed in sorted(set(old) | set(new), key=int):
            if old.get(seed) != new.get(seed):
                lines.append(f"{name} @ {seed}: {old.get(seed)} -> {new.get(seed)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed ledger instead of rewriting "
        "it; exit 1 on any difference",
    )
    parser.add_argument("--ledger", type=Path, default=LEDGER_PATH)
    args = parser.parse_args(argv)
    computed = compute()
    if args.check:
        differences = diff(load(args.ledger), computed)
        for line in differences:
            print(f"DIFF {line}", file=sys.stderr)
        print(f"{len(differences)} of {len(scenarios())} entries differ")
        return 1 if differences else 0
    args.ledger.parent.mkdir(parents=True, exist_ok=True)
    args.ledger.write_text(render(computed), encoding="utf-8")
    print(f"wrote {len(scenarios())} entries to {args.ledger}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
