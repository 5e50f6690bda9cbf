#!/usr/bin/env python
"""The golden ledger: committed digests of seeded outcomes.

Each entry pins one seeded run, keyed by ``(scenario, seed)``, with the
16-hex SHA-256 of its result in canonical JSON: ``dataclasses.asdict``,
sorted keys, ``repr`` for anything JSON cannot hold.  Fields a result
excludes from its own equality (``SimulationResult.phase_timings``, the
wall-clock breakdown) are left out, so the digest covers exactly what
``==`` compares.

The scenarios are the runs whose outcomes were once pinned only by an
equality between two live runs of the same seed on the two node-state
layouts (the column store and the object-per-node layout), so the pin
outlives either side of it:

* a churned N=36 construction, greedy/hybrid under each of the four
  paper oracles, each of six fault plans, each of the four distributed
  oracle realizations, and the sharded realization under faults;
* a quick multi-feed service soak;
* a faulted two-path multipath build;
* a corrupted overlay's self-stabilization (the outcome plus the sorted
  final parent map).

Beside those, one row per round loop the layouts never split, so every
loop that drives the construction rules is pinned:

* the continuous clock on ``geo-3region``, as a static build and under
  churn plus a fault plan;
* the rounds clock with ``AsynchronyConfig(1, 4)`` under churn;
* a static greedy build stopped at convergence (the paper grid's path);
* a reuse-biased multi-feed system driven by ``run()`` and by
  ``run_sequential()`` (convergence by feed, rounds run and the sorted
  parent map of every feed);
* a small multi-feed service soak on the continuous clock over
  ``geo-3region`` with a flash crowd, an exodus and a crash, the one
  row whose feed delivery runs on a per-edge hop-delay model.

Last, twelve ``quick/<record>`` rows keep the seeded outcomes of the
former quick benchmark suite: each row's value is the dict of one
record's exact metrics (the smoke-scale Fig. 2-4 medians, availability
and recovery under layered faults, the source-backoff A/B, satisfied
fractions on the sharded directory, the continuous clock's events and
ms staleness, multipath delivery, probe event and flight-recorder
sample counts, the service soak's SLO numbers and stabilization rounds).

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
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

LEDGER_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / "ledger.json"

ORACLES = (
    "random",
    "random-capacity",
    "random-delay",
    "random-delay-capacity",
)

FAULT_PLANS = (
    "crash@20:0.3:rejoin=10",
    "leave@15:0.2, crash@40:0.15",
    "oracle-outage@10:8",
    "source-outage@25:6",
    "partition@12:15:2",
    "stale-view@10:12:4",
)

REALIZATIONS = (
    ("dht", "random-delay"),
    ("sharded", "random-delay"),
    ("sharded", "random-delay-capacity"),
    ("random-walk", "random"),
)

#: One ledger scenario: ``(name, seed, run)``; ``run(seed)`` returns the
#: value whose digest is pinned.
Scenario = Tuple[str, int, Callable[[int], object]]


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


def _construction(seed: int, **config_kwargs):
    """One churned N=36 construction run (hybrid x Random-Delay unless
    overridden), run for its whole round budget."""
    from repro.sim.churn import ChurnConfig
    from repro.sim.runner import SimulationConfig, run_simulation
    from repro.workloads.random_workload import rand_workload

    workload, _ = rand_workload(size=36, seed=5, source_fanout=3)
    settings = dict(
        algorithm="hybrid",
        oracle="random-delay",
        seed=seed,
        max_rounds=120,
        churn=ChurnConfig(),
        stop_at_convergence=False,
    )
    settings.update(config_kwargs)
    return run_simulation(workload, SimulationConfig(**settings))


def _faulted(plan: str, **config_kwargs):
    from repro.faults.plan import parse_fault_plan

    return lambda seed: _construction(
        seed, faults=parse_fault_plan(plan), **config_kwargs
    )


def _continuous(seed: int, **config_kwargs):
    """One N=40 hybrid build on the continuous clock over the
    ``geo-3region`` profile."""
    from repro.sim.runner import SimulationConfig, run_simulation
    from repro.workloads.random_workload import rand_workload

    workload, _ = rand_workload(size=40, seed=5, source_fanout=3)
    settings = dict(
        algorithm="hybrid",
        oracle="random-delay",
        seed=seed,
        max_rounds=150,
        time_model="continuous:geo-3region",
    )
    settings.update(config_kwargs)
    return run_simulation(workload, SimulationConfig(**settings))


def _continuous_churn_faults(seed: int):
    from repro.faults.plan import parse_fault_plan
    from repro.sim.churn import ChurnConfig

    return _continuous(
        seed,
        churn=ChurnConfig(),
        faults=parse_fault_plan("crash@20:0.2:rejoin=10, source-outage@35:4"),
        max_rounds=80,
        stop_at_convergence=False,
    )


def _asynchrony(seed: int):
    from repro.sim.asynchrony import AsynchronyConfig

    return _construction(seed, asynchrony=AsynchronyConfig(1, 4))


def _static_greedy(seed: int):
    """A static N=40 greedy build run to its first converged round."""
    from repro.sim.runner import SimulationConfig, run_simulation
    from repro.workloads import make

    return run_simulation(
        make("Rand", size=40, seed=5),
        SimulationConfig(
            algorithm="greedy", oracle="random-delay", seed=seed, max_rounds=8000
        ),
    )


def _multifeed(sequential: bool):
    """Three feeds over 30 shared consumers with the reuse-biased oracle,
    built interleaved (``run()``) or one feed after another."""

    def run(seed: int):
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

    return run


def _soak(seed: int):
    from repro.multifeed.soak import SoakConfig, parse_timeline, run_soak

    return run_soak(
        SoakConfig(
            consumer_count=36,
            seed=seed,
            rounds=70,
            warmup_rounds=20,
            timeline=parse_timeline(
                "flash@30:news:x4:ramp=2,exodus@50:sports:0.4,rejoin@60:sports"
            ),
        )
    )


def _soak_geo(seed: int):
    """A small three-feed soak on the continuous clock over
    ``geo-3region``: a flash crowd, an exodus with its rejoin, and a
    crash burst, so feed items cross re-parented overlays with pushes
    from former parents still in flight."""
    from repro.faults.plan import parse_fault_plan
    from repro.multifeed.soak import SoakConfig, parse_timeline, run_soak

    return run_soak(
        SoakConfig(
            consumer_count=36,
            seed=seed,
            rounds=70,
            warmup_rounds=20,
            timeline=parse_timeline(
                "flash@30:news:x4:ramp=2,exodus@45:news:0.4,rejoin@55:news"
            ),
            faults=parse_fault_plan("crash@40:0.15:rejoin=8"),
            time_model="continuous:geo-3region",
        )
    )


def _multipath(seed: int):
    from repro.faults.plan import parse_fault_plan
    from repro.multipath import MultipathSystem
    from repro.workloads import make

    system = MultipathSystem(
        make("Rand", size=30, seed=5),
        paths=2,
        seed=seed,
        faults=parse_fault_plan("crash@40:0.2:rejoin=10"),
    )
    system.run(max_rounds=200)
    return system.result()


def _stabilize(seed: int):
    """Build and converge an N=24 overlay, corrupt it with ``seed``, and
    stabilize it again."""
    from repro.core.tree import Overlay
    from repro.stabilize import corrupt_overlay, stabilize
    from repro.stabilize.harness import converge
    from repro.workloads import make

    workload = make("Rand", size=24, seed=3)
    overlay = Overlay(source_fanout=workload.source_fanout)
    overlay.add_population(workload.population)
    converged, _ = converge(
        overlay,
        algorithm="hybrid",
        oracle="random-delay",
        realization="omniscient",
        seed=3,
        max_rounds=4000,
    )
    if not converged:
        raise RuntimeError("construction must converge before corruption")
    corrupt_overlay(overlay, random.Random(seed))
    outcome = stabilize(overlay, algorithm="hybrid", seed=seed)
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


def _churned(size: int, seed: int, rounds: int, **config_kwargs):
    """A churned hybrid x Random-Delay run of ``rounds`` rounds over
    ``Rand`` with source fanout 4: ``(workload, config)``."""
    from repro.sim.churn import ChurnConfig
    from repro.sim.runner import SimulationConfig
    from repro.workloads.random_workload import rand_workload

    workload, _ = rand_workload(size=size, seed=seed, source_fanout=4)
    settings = dict(
        algorithm="hybrid",
        oracle="random-delay",
        seed=seed,
        churn=ChurnConfig(),
        max_rounds=rounds,
        stop_at_convergence=False,
    )
    settings.update(config_kwargs)
    return workload, SimulationConfig(**settings)


def _quick_chain_index(seed: int):
    from repro.sim.runner import run_simulation

    result = run_simulation(*_churned(300, seed, 8))
    return {"satisfied_fraction": result.final_quality.satisfied_fraction}


def _quick_obs_overhead(seed: int):
    """Events a recording probe captures and samples the flight
    recorder holds on one N=300 churned run of 8 rounds."""
    from repro.obs.health import HealthConfig
    from repro.obs.probe import RecordingProbe
    from repro.sim.runner import Simulation

    probe = RecordingProbe()
    Simulation(*_churned(300, seed, 8), probe=probe).run()
    ring = Simulation(
        *_churned(300, seed, 8, health=HealthConfig(), attribution=True)
    )
    ring.run()
    return {
        "events_total": len(probe.events),
        "health_samples": len(ring.health.samples),
    }


def _slack_workload(size: int, seed: int):
    """``Rand`` with slack a sampled directory can serve: latency budgets
    up to 40, fanout 2..8, source fanout 32."""
    from repro.workloads.random_workload import rand_workload

    workload, _ = rand_workload(
        size=size,
        seed=seed,
        source_fanout=32,
        max_latency=40,
        min_fanout=2,
        max_fanout=8,
    )
    return workload


def _sharded(size: int, seed: int, rounds: int, **config_kwargs):
    """A hybrid x Random-Delay run on the sharded directory over
    :func:`_slack_workload`, run for its whole round budget."""
    from repro.sim.runner import SimulationConfig, run_simulation

    return run_simulation(
        _slack_workload(size, seed),
        SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            oracle_realization="sharded",
            seed=seed,
            max_rounds=rounds,
            stop_at_convergence=False,
            **config_kwargs,
        ),
    )


def _quick_scale(seed: int):
    from repro.sim.churn import ChurnConfig

    build = _sharded(2000, seed, 60)
    churned = _sharded(2000, seed, 30, churn=ChurnConfig())
    return {
        "satisfied_fraction.build.n2000": build.final_quality.satisfied_fraction,
        "satisfied_fraction.churn.n2000": churned.final_quality.satisfied_fraction,
    }


def _quick_continuous(seed: int):
    result = _sharded(600, seed, 40, time_model="continuous:geo-3region")
    return {
        "events_fired": result.events_fired,
        "staleness_ms_p50": result.staleness_ms_p50,
        "staleness_ms_p99": result.staleness_ms_p99,
        "satisfied_fraction": result.final_quality.satisfied_fraction,
    }


#: The chaos soak's layered plan: a 20 % crash rejoining as a burst, a
#: source outage and a stale oracle view.
CHAOS_PLAN = "crash@40:0.2:rejoin=20, source-outage@130:12, stale-view@200:15:6"


def _quick_chaos_soak(seed: int):
    from repro.faults.plan import parse_fault_plan
    from repro.sim.runner import SimulationConfig, run_simulation
    from repro.workloads.random_workload import rand_workload

    workload, _ = rand_workload(size=120, seed=seed, source_fanout=4)
    result = run_simulation(
        workload,
        SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            seed=seed,
            faults=parse_fault_plan(CHAOS_PLAN),
            max_rounds=220,
            stop_at_convergence=False,
        ),
    )
    return {
        "availability": result.availability,
        "time_to_recover": result.time_to_recover,
    }


#: The thundering herd: 40 % of N=120 crash at round 60 and rejoin at
#: round 70 as a burst, straight into a 40-round source outage.
HERD_REJOIN, HERD_WINDOW = 70, 40


def thundering_herd(seed: int, backoff: bool) -> Dict[str, object]:
    """One arm of the source-backoff A/B: the herd's source contacts
    inside the outage window, and the round construction converged."""
    from repro.core.protocol import ProtocolConfig
    from repro.faults.plan import parse_fault_plan
    from repro.obs.probe import RecordingProbe
    from repro.sim.runner import SimulationConfig, run_simulation
    from repro.workloads.random_workload import rand_workload

    workload, _ = rand_workload(size=120, seed=seed, source_fanout=4)
    probe = RecordingProbe()
    result = run_simulation(
        workload,
        SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            seed=seed,
            protocol=ProtocolConfig(source_backoff=backoff),
            faults=parse_fault_plan(
                f"crash@60:0.4:rejoin=10, "
                f"source-outage@{HERD_REJOIN}:{HERD_WINDOW}"
            ),
            max_rounds=HERD_REJOIN + HERD_WINDOW,
            stop_at_convergence=False,
            probe=probe,
        ),
    )
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


def _quick_soak(seed: int):
    """The service soak at quick scale: 40 consumers, a 10x flash crowd
    on the hot feed, its exodus and a source outage."""
    from repro.faults.plan import parse_fault_plan
    from repro.multifeed.soak import SoakConfig, parse_timeline, run_soak

    summary = run_soak(
        SoakConfig(
            consumer_count=40,
            seed=seed,
            rounds=90,
            warmup_rounds=24,
            timeline=parse_timeline("flash@36:news:x10:ramp=3,exodus@60:news:0.4"),
            faults=parse_fault_plan("source-outage@48:4"),
        )
    )
    return {
        "hot_reconverge_rounds": summary.hot_reconverge_rounds,
        "hot_p99_after": summary.hot_p99_after,
        "availability": summary.availability,
        "time_to_recover": summary.time_to_recover,
        "reuse_fraction": summary.reuse.reuse_fraction,
    }


def _quick_stabilize(seed: int):
    """Recovery rounds from corruption seed 7 (intensity 0.25) of a
    converged N=24 overlay, greedy/hybrid x omniscient/sharded; ``None``
    for a cell that misses its round bound."""
    from repro.core.tree import Overlay
    from repro.stabilize import corrupt_overlay, stabilize
    from repro.stabilize.harness import converge
    from repro.workloads import make

    out = {}
    for algorithm in ("greedy", "hybrid"):
        for realization in ("omniscient", "sharded"):
            workload = make("Rand", size=24, seed=seed)
            overlay = Overlay(source_fanout=workload.source_fanout)
            overlay.add_population(workload.population)
            built, _ = converge(
                overlay,
                algorithm=algorithm,
                realization=realization,
                seed=seed,
                max_rounds=4000,
            )
            if not built:
                raise RuntimeError("construction must converge before corruption")
            corrupt_overlay(overlay, random.Random(7), intensity=0.25)
            outcome = stabilize(
                overlay, algorithm=algorithm, realization=realization, seed=7
            )
            out[f"rounds.{algorithm}.{realization}"] = (
                outcome.rounds if outcome.converged else None
            )
    return out


QUICK: List[Scenario] = [
    ("quick/chain_index.churn", 0, _quick_chain_index),
    ("quick/chaos_soak.backoff_ab", 0, _quick_backoff_ab),
    ("quick/chaos_soak.soak", 0, _quick_chaos_soak),
    ("quick/figure2.spread", 0, _quick_figure2),
    ("quick/figure3.oracle_grid", 0, _quick_figure3),
    ("quick/figure4.greedy_vs_hybrid", 0, _quick_figure4),
    ("quick/multipath.avail", 2, _quick_multipath),
    ("quick/obs.overhead", 0, _quick_obs_overhead),
    ("quick/scale.columnar", 0, _quick_scale),
    ("quick/soak.service", 0, _quick_soak),
    ("quick/stabilize.converge", 3, _quick_stabilize),
    ("quick/time.continuous", 0, _quick_continuous),
]


def scenarios() -> List[Scenario]:
    """Every ledger scenario, in ledger order."""
    out: List[Scenario] = []
    for algorithm in ("greedy", "hybrid"):
        for oracle in ORACLES:
            out.append(
                (
                    f"construction/churn/{algorithm}/{oracle}",
                    17,
                    lambda seed, a=algorithm, o=oracle: _construction(
                        seed, algorithm=a, oracle=o
                    ),
                )
            )
    for algorithm in ("greedy", "hybrid"):
        for plan in FAULT_PLANS:
            out.append(
                (
                    f"construction/faults/{algorithm}/{plan}",
                    17,
                    _faulted(plan, algorithm=algorithm),
                )
            )
    for realization, oracle in REALIZATIONS:
        out.append(
            (
                f"construction/realization/{realization}/{oracle}",
                17,
                lambda seed, r=realization, o=oracle: _construction(
                    seed, oracle=o, oracle_realization=r
                ),
            )
        )
    out.append(
        (
            "construction/sharded+faults",
            17,
            _faulted(
                "crash@18:0.25:rejoin=8, oracle-outage@30:5",
                oracle_realization="sharded",
            ),
        )
    )
    out.append(("continuous/static/geo-3region", 17, _continuous))
    out.append(
        ("continuous/churn+faults/geo-3region", 17, _continuous_churn_faults)
    )
    out.append(("construction/asynchrony/churn", 17, _asynchrony))
    out.append(("construction/static/greedy", 17, _static_greedy))
    out.append(("multifeed/run/reuse", 13, _multifeed(sequential=False)))
    out.append(
        ("multifeed/run_sequential/reuse", 13, _multifeed(sequential=True))
    )
    out.append(("soak/quick", 11, _soak))
    out.append(("soak/geo-3region", 11, _soak_geo))
    out.append(("multipath/2-paths+crash", 5, _multipath))
    out.append(("stabilize/hybrid/omniscient", 99, _stabilize))
    out.extend(QUICK)
    return out


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
