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
