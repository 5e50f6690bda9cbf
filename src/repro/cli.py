"""Command-line interface: ``python -m repro.cli <command>``.

Eight commands cover the common workflows (docs/CLI.md is the full
reference):

``build``
    Run one construction (one overlay, or ``--paths K`` disjoint ones)
    and report the outcome; optionally render the tree, run a
    feed-delivery check, or export a JSONL protocol trace.
``sweep``
    A multi-seed (family × oracle) sweep with the repeat-median
    protocol, optionally fanned out to worker processes (bit-identical
    to serial — docs/PARALLEL.md).
``serve-soak``
    Long-running multi-feed service soak under a scripted timeline and
    fault plan, with per-feed staleness SLOs (docs/SCENARIOS.md).
``workload`` / ``feasibility``
    Describe a workload family instance, or decide the feasibility of a
    small population in the paper's ``name_f^l`` notation.
``experiment``
    Run one of the full-scale paper experiments by name.
``latency``
    Inspect the geographic latency profiles behind the continuous time
    model (docs/TIMING.md).
``obs``
    ``summarize``, ``report`` and ``top`` over exported traces.

``build``, ``sweep`` and ``serve-soak`` turn their flags into one
:class:`repro.spec.RunSpec` per run and run it through :mod:`repro.spec`.

Examples::

    python -m repro.cli build --workload BiCorr --algorithm hybrid --render
    python -m repro.cli build --workload Rand --trace-out run.jsonl
    python -m repro.cli build --time-model continuous:geo-3region
    python -m repro.cli latency --profile geo-3region --matrix
    python -m repro.cli sweep --families paper --oracles all --workers 4
    python -m repro.cli sweep --families Rand --repeats 10 --faults 'crash@60:0.2'
    python -m repro.cli obs summarize run.jsonl
    python -m repro.cli obs report run.jsonl --out report.html
    python -m repro.cli obs top run.jsonl --tail 15
    python -m repro.cli workload --workload Tf1 --size 120
    python -m repro.cli feasibility --source-fanout 1 "1_1^1 2_1^2 3_2^5 4_1^4 5_0^4"
    python -m repro.cli experiment figure3
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.analysis.reporting import ascii_table
from repro.core.constraints import parse_population
from repro.core.errors import ConfigurationError
from repro.core.sufficiency import find_feasible_configuration, sufficiency_holds
from repro.oracles.base import oracle_names
from repro.sim.runner import ALGORITHMS
from repro.sim.timemodel import parse_time_model
from repro.spec import RunSpec, execute, run
from repro.workloads import family_names, make as make_workload

_SPEC_FIELDS = [field.name for field in dataclasses.fields(RunSpec)]

EXPERIMENTS = (
    "figure2",
    "figure3",
    "figure4",
    "asynchrony",
    "adversarial",
    "baselines_experiment",
    "ablations",
    "extensions",
)


#: The run-description flags build, sweep and serve-soak share; each is
#: one repro.spec.RunSpec key (docs/CLI.md has the per-command detail).
_RUN_FLAGS = {
    "--max-rounds": dict(type=int, default=6000, help="round budget"),
    "--time-model": dict(
        default="rounds",
        metavar="MODEL",
        help="'rounds' (default, the paper's synchronous clock) or "
        "'continuous:<profile>' — the continuous-time engine over a "
        "geographic latency profile ('repro latency --list' names them), "
        "with wall-clock-ms staleness (docs/TIMING.md)",
    ),
    "--paths": dict(
        type=int,
        default=1,
        help="build K upstream-disjoint overlay paths (§7 multipath; "
        "K>1 splits each consumer's fanout budget across the paths and "
        "uses the built-in disjointness-enforcing oracle, so --oracle "
        "and --oracle-realization only label the run)",
    ),
    "--churn": dict(action="store_true", help="enable the paper's churn model"),
    "--faults": dict(
        default=None,
        metavar="PLAN",
        help="inject a fault plan, e.g. 'crash@60:0.2:rejoin=15,"
        "source-outage@80:10' (see docs/RESILIENCE.md for the DSL)",
    ),
}


def _add_run_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_RUN_FLAGS[flag])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LagOver (ICDCS 2007) reproduction CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="run one construction")
    build.add_argument("--workload", default="Rand", choices=family_names())
    build.add_argument("--size", type=int, default=120)
    build.add_argument(
        "--algorithm", default="hybrid", choices=sorted(ALGORITHMS)
    )
    build.add_argument("--oracle", default="random-delay", choices=oracle_names())
    build.add_argument(
        "--oracle-realization",
        default="omniscient",
        choices=("omniscient", "dht", "sharded", "random-walk"),
    )
    build.add_argument("--seed", type=int, default=0)
    _add_run_flags(
        build, "--max-rounds", "--time-model", "--paths", "--churn", "--faults"
    )
    build.add_argument(
        "--harden",
        action="store_true",
        help="enable the protocol hardening (source-contact backoff and "
        "stale-referral requeue)",
    )
    build.add_argument(
        "--render", action="store_true", help="print the final tree"
    )
    build.add_argument(
        "--deliver",
        action="store_true",
        help="run a feed-delivery staleness check over the built overlay",
    )
    build.add_argument(
        "--workload-file",
        default=None,
        help="load the population from a JSON file (see 'workload --save') "
        "instead of generating it",
    )
    build.add_argument(
        "--dot",
        default=None,
        metavar="PATH",
        help="write the final overlay as a Graphviz DOT file",
    )
    build.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record every protocol event plus the v2 layers (health "
        "timeseries, staleness attribution, and — with --deliver — "
        "feed delivery spans) and write a JSONL trace (explore it with "
        "'repro obs summarize/report/top PATH')",
    )

    sweep = commands.add_parser(
        "sweep",
        help="multi-seed (family x oracle) sweep, optionally parallel",
    )
    sweep.add_argument(
        "--families",
        default="Rand",
        help="comma-separated family names, or 'paper' (the four §4.1 "
        "families) or 'all'",
    )
    sweep.add_argument(
        "--oracles",
        default="random-delay",
        help="comma-separated oracle names, or 'all'",
    )
    sweep.add_argument(
        "--algorithm", default="greedy", choices=sorted(ALGORITHMS)
    )
    sweep.add_argument("--size", type=int, default=120)
    sweep.add_argument("--repeats", type=int, default=5)
    sweep.add_argument("--base-seed", type=int, default=0)
    _add_run_flags(sweep, "--max-rounds", "--time-model", "--paths")
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool size; 0 or 1 runs serial (results are "
        "bit-identical either way)",
    )
    sweep.add_argument(
        "--fixed-workload",
        action="store_true",
        help="replay one workload draw per cell across all seeds "
        "(Fig. 2's protocol) instead of varying the draw with the seed",
    )
    _add_run_flags(sweep, "--churn", "--faults")
    sweep.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write one JSONL protocol trace per seed into DIR",
    )
    sweep.add_argument(
        "--obs",
        action="store_true",
        help="collect per-run observability and print the merged "
        "counter registry",
    )
    sweep.add_argument(
        "--health",
        action="store_true",
        help="keep the flight-recorder health timeseries on in every "
        "run and print a merged summary",
    )

    workload = commands.add_parser("workload", help="describe a workload")
    workload.add_argument("--workload", default="Rand", choices=family_names())
    workload.add_argument("--size", type=int, default=120)
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument(
        "--save",
        default=None,
        metavar="PATH",
        help="also write the materialized population as JSON",
    )

    feasibility = commands.add_parser(
        "feasibility", help="exact feasibility of a small population"
    )
    feasibility.add_argument(
        "population",
        help="whitespace/comma separated specs in name_f^l notation",
    )
    feasibility.add_argument("--source-fanout", type=int, default=1)

    experiment = commands.add_parser(
        "experiment", help="run a full-scale paper experiment"
    )
    experiment.add_argument("name", choices=EXPERIMENTS)

    soak = commands.add_parser(
        "serve-soak",
        help="long-running multi-feed service soak (flash crowds, "
        "exoduses, faults, per-feed staleness SLOs)",
    )
    soak.add_argument(
        "--feeds",
        default="news,sports,tech",
        metavar="IDS",
        help="comma-separated feed ids sharing one population",
    )
    soak.add_argument("--consumers", type=int, default=60)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--rounds", type=int, default=120)
    soak.add_argument(
        "--warmup",
        type=int,
        default=30,
        metavar="ROUNDS",
        help="construction-only rounds before dissemination and "
        "measurement start",
    )
    soak.add_argument(
        "--timeline",
        default="flash@40:news:x10:ramp=3,exodus@80:news:0.5",
        metavar="ACTS",
        help="scripted service timeline, e.g. 'flash@40:news:x10:ramp=3,"
        "exodus@80:news:0.6:crash,rejoin@100:news' (see docs/SCENARIOS.md); "
        "'none' runs an undisturbed soak",
    )
    _add_run_flags(soak, "--faults")
    soak.add_argument("--publish-rate", type=float, default=0.5)
    soak.add_argument("--burst-size", type=int, default=4)
    soak.add_argument("--pull-period", type=float, default=1.0)
    _add_run_flags(soak, "--time-model")
    soak.add_argument("--reuse-bias", type=float, default=0.8)
    soak.add_argument(
        "--recover-threshold",
        type=float,
        default=0.9,
        metavar="FRACTION",
        help="satisfied fraction at which a feed counts as recovered",
    )
    soak.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="K",
        help="run K soaks at seeds seed..seed+K-1",
    )
    soak.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="fan --repeats out to N worker processes (results are "
        "bit-identical to serial)",
    )
    soak.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the summaries as JSON",
    )
    soak.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record soak-phase and feed-health events (plus every "
        "protocol event) of the first repeat and write a JSONL trace "
        "for 'repro obs summarize'",
    )

    latency = commands.add_parser(
        "latency",
        help="inspect the geo latency profiles behind the continuous "
        "time model",
    )
    latency.add_argument(
        "--profile",
        default="geo-3region",
        metavar="NAME",
        help="profile to describe (see --list)",
    )
    latency.add_argument(
        "--list",
        action="store_true",
        help="list the available profiles and exit",
    )
    latency.add_argument("--seed", type=int, default=0)
    latency.add_argument(
        "--samples",
        type=int,
        default=2000,
        metavar="N",
        help="endpoint pairs to sample for the one-way delay percentiles",
    )
    latency.add_argument(
        "--triangle-tolerance",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="slack when checking the triangle inequality over PoP "
        "triples (0.1 = direct may exceed any relay path by 10%%)",
    )
    latency.add_argument(
        "--matrix",
        action="store_true",
        help="print the full PoP-to-PoP one-way matrix",
    )
    latency.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the profile description as JSON",
    )

    obs = commands.add_parser(
        "obs", help="observability tools over exported traces"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_commands.add_parser(
        "summarize",
        help="render event counts and timing breakdowns of a JSONL trace",
    )
    summarize.add_argument("trace", help="trace file written by build --trace-out")
    summarize.add_argument(
        "--kind",
        default=None,
        metavar="KINDS",
        help="only count events of these comma-separated kinds "
        "(e.g. 'detach,attach-accept')",
    )
    report = obs_commands.add_parser(
        "report",
        help="render a self-contained report (staleness attribution, "
        "health sparklines, critical paths, fault annotations)",
    )
    report.add_argument("trace", help="trace file written by build --trace-out")
    report.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report here instead of stdout",
    )
    report.add_argument(
        "--format",
        default="html",
        choices=("html", "markdown"),
        help="report format (default html)",
    )
    top = obs_commands.add_parser(
        "top",
        help="terminal per-round view of the overlay health timeseries",
    )
    top.add_argument("trace", help="trace file written by build --trace-out")
    top.add_argument(
        "--tail",
        type=int,
        default=20,
        metavar="N",
        help="show the last N sampled rounds (default 20; 0 for all)",
    )
    return parser


def _run_spec(args: argparse.Namespace, **overrides) -> Optional[RunSpec]:
    """The command's run as a RunSpec: every spec field from the flag of
    that name (``--max-rounds`` gives ``rounds``), then ``overrides``.

    ``None`` after printing ``error: ...`` to stderr when the flags
    describe no valid run (the command then exits 2, the usage-error
    code)."""
    flags = vars(args)
    fields = {name: flags[name] for name in _SPEC_FIELDS if name in flags}
    if "max_rounds" in flags:
        fields["rounds"] = flags["max_rounds"]
    fields["faults"] = flags.get("faults") or None
    try:
        return RunSpec(**{**fields, **overrides})
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _recovery(rounds, ms=None) -> str:
    """A time-to-recover cell: rounds (and ms), or ``never``."""
    if rounds is None:
        return "never"
    return f"{rounds} ({ms:.0f}ms)" if ms is not None else str(rounds)


def _cmd_build(args: argparse.Namespace) -> int:
    spec = _run_spec(args)
    if spec is None:
        return 2
    workload = spec.make_workload(args.seed)
    print(workload.describe())
    probe, observers = None, {}
    if args.trace_out:
        from repro.obs import HealthConfig, RecordingProbe

        probe = RecordingProbe()
        # A traced run carries the full v2 observability: health
        # timeseries plus round-domain staleness attribution.
        if args.paths == 1:
            observers = {"health": HealthConfig(), "attribution": True}
    engine, result = execute(workload, spec.config(args.seed, **observers), probe)
    report = _report_multipath if args.paths > 1 else _report_overlay
    header, layers = report(args, engine, result)
    if args.trace_out:
        from repro.obs.export import write_trace

        count = write_trace(
            args.trace_out,
            probe.events,
            registry=probe.registry,
            header_extra={
                "workload": workload.name,
                "algorithm": args.algorithm,
                "seed": args.seed,
                "rounds": result.rounds_run,
                **header,
            },
            **layers,
        )
        print(f"\nwrote {count} events to {args.trace_out}")
    return 0 if result.converged else 1


def _report_overlay(args, simulation, result):
    """``repro build`` output for one overlay: ``(trace header, trace
    layers)``."""
    print(
        ascii_table(
            ["converged", "rounds", "attaches", "detaches", "oracle misses"],
            [
                [
                    result.converged,
                    result.construction_rounds,
                    result.attaches,
                    result.detaches,
                    result.oracle_misses,
                ]
            ],
        )
    )
    time_model = parse_time_model(args.time_model)
    if time_model.continuous:
        sim_ms, p50_ms, p99_ms = (
            f"{value:.1f}" if value is not None else "-"
            for value in (
                result.sim_time_ms,
                result.staleness_ms_p50,
                result.staleness_ms_p99,
            )
        )
        print(
            ascii_table(
                ["profile", "sim time (ms)", "events"]
                + ["staleness p50 (ms)", "staleness p99 (ms)"],
                [[time_model.profile, sim_ms, result.events_fired, p50_ms, p99_ms]],
            )
        )
    if args.faults:
        recover = _recovery(result.time_to_recover, result.time_to_recover_ms)
        print(
            ascii_table(
                ["fault events", "availability", "time to recover"],
                [[result.fault_events, f"{result.availability:.1%}", recover]],
            )
        )
    if args.render:
        print()
        print(simulation.overlay.render())
    if args.dot:
        from repro.analysis.dot import overlay_to_dot

        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(
                overlay_to_dot(simulation.overlay, simulation.workload.name)
            )
        print(f"\nwrote {args.dot}")
    tracer = None
    if args.deliver:
        from repro.feeds import disseminate

        if args.trace_out:
            from repro.obs import SpanRecorder

            tracer = SpanRecorder()
        hop_model = None
        if time_model.continuous:
            # Delivery hops follow the same geo substrate the build ran
            # on, so the recorded spans carry real per-edge latencies.
            from repro.locality.geo import get_profile
            from repro.sim.continuous import hop_delay_from_geo

            hop_model = hop_delay_from_geo(
                simulation.geo, get_profile(time_model.profile).pull_period_ms
            )
        report = disseminate(
            simulation.overlay,
            duration=60.0,
            seed=args.seed,
            tracer=tracer,
            hop_delay_model=hop_model,
        )
        print(
            f"\ndelivery check: {report.satisfied_fraction:.0%} within "
            f"promise (worst violation {report.worst_violation():+.2f})"
        )
    traced = args.trace_out is not None
    return {"oracle": args.oracle, "time_model": args.time_model}, {
        "phase_timings": simulation.timings.summary(),
        # A traced single-overlay run carries both recorders.
        "health": simulation.health.records() if traced else None,
        "spans": tracer.records() if tracer is not None else None,
        "attribution": simulation.attributor.records() if traced else None,
    }


def _report_multipath(args, system, outcome):
    """``repro build --paths K`` output for K>1 overlays: ``(trace
    header, trace layers)``."""
    print(
        ascii_table(
            ["paths", "converged", "rounds"]
            + ["delivery avail", "overlap repairs"],
            [
                [
                    outcome.paths,
                    outcome.converged,
                    outcome.construction_rounds,
                    f"{outcome.delivery_availability:.1%}",
                    outcome.overlap_repairs,
                ]
            ],
        )
    )
    if args.faults:
        surviving = ", ".join(
            f"{paths}p:{rounds}"
            for paths, rounds in sorted(outcome.paths_surviving.items())
        )
        print(
            ascii_table(
                ["fault events", "paths surviving (rounds)", "time to recover"],
                [
                    [
                        outcome.fault_events,
                        surviving or "-",
                        _recovery(outcome.time_to_recover),
                    ]
                ],
            )
        )
    if args.render:
        for path, overlay in enumerate(system.overlays):
            print(f"\npath {path}:")
            print(overlay.render())
    if args.deliver or args.dot:
        print(
            "\nnote: --deliver/--dot are single-overlay features; "
            "ignored with --paths > 1"
        )
    return {"oracle": "disjoint-delay", "paths": args.paths}, {"phase_timings": {}}


def _parse_sweep_families(text: str) -> List[str]:
    if text == "paper":
        from repro.workloads import PAPER_FAMILIES

        return list(PAPER_FAMILIES)
    if text == "all":
        return family_names()
    return [chunk.strip() for chunk in text.split(",") if chunk.strip()]


def _parse_sweep_oracles(text: str) -> List[str]:
    if text == "all":
        return list(oracle_names())
    return [chunk.strip() for chunk in text.split(",") if chunk.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.par import (
        make_executor,
        median_of_outcomes,
        merge_outcome_counters,
        merge_outcome_health,
        repeat_items,
    )

    families = _parse_sweep_families(args.families)
    oracles = _parse_sweep_oracles(args.oracles)
    keys = [(family, oracle) for family in families for oracle in oracles]
    items = []
    for family, oracle in keys:
        spec = _run_spec(args, workload=family, oracle=oracle)
        if spec is None:
            return 2
        items.extend(
            repeat_items(
                family,
                spec.config(args.base_seed),
                args.size,
                args.repeats,
                base_seed=args.base_seed,
                vary_workload=not args.fixed_workload,
                recipe=spec,
            )
        )
    executor = make_executor(args.workers)
    print(
        f"sweep: {len(families)} families x {len(oracles)} oracles x "
        f"{args.repeats} seeds = {len(items)} runs "
        f"({executor.name}, {executor.workers} worker"
        f"{'s' if executor.workers != 1 else ''})"
    )
    outcomes = executor.run(
        items,
        collect_obs=args.obs,
        trace_dir=args.trace_dir,
        collect_health=args.health,
    )
    grid = {}
    for index, key in enumerate(keys):
        chunk = outcomes[index * args.repeats : (index + 1) * args.repeats]
        grid[key] = median_of_outcomes(chunk)
    print(
        ascii_table(
            ["workload"] + oracles,
            [
                [family] + [grid[(family, oracle)].render() for oracle in oracles]
                for family in families
            ],
        )
    )
    failures = [outcome for outcome in outcomes if not outcome.ok]
    for outcome in failures:
        print(f"FAILED: {outcome.error}", file=sys.stderr)
    if args.trace_dir:
        written = sum(1 for o in outcomes if o.trace_path is not None)
        print(f"\nwrote {written} per-seed traces to {args.trace_dir}")
    if args.obs:
        merged = merge_outcome_counters(outcomes).snapshot()
        print()
        print(
            ascii_table(
                ["counter", "value"], sorted(merged["counters"].items())
            )
        )
    if args.health:
        ring = merge_outcome_health(outcomes)
        samples = ring.to_list()
        runs = len({s["sweep_position"] for s in samples})
        print(
            f"\nhealth: {len(samples)} samples from {runs} runs "
            f"held ({ring.dropped} dropped by the flight recorder)"
        )
        if samples:
            last = samples[-1]
            print(
                f"last sampled round {last['round']}: "
                f"online {last['online']}, rooted {last['rooted']}, "
                f"satisfied {last['satisfied']}, orphans {last['orphans']}"
            )
    return 1 if failures else 0


def _cmd_workload(args: argparse.Namespace) -> int:
    workload = make_workload(args.workload, size=args.size, seed=args.seed)
    print(workload.describe())
    print(f"sufficiency condition holds: {workload.satisfies_sufficiency()}")
    if args.save:
        from repro.workloads import save_workload

        save_workload(workload, args.save)
        print(f"saved population to {args.save}")
    print(
        ascii_table(
            ["latency l", "count"],
            sorted(workload.latency_histogram().items()),
        )
    )
    print(
        ascii_table(
            ["fanout f", "count"],
            sorted(workload.fanout_histogram().items()),
        )
    )
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    population = parse_population(args.population)
    specs = [spec for _, spec in population]
    sufficient = sufficiency_holds(args.source_fanout, specs)
    print(f"sufficiency condition (§3.3): {sufficient}")
    assignment = find_feasible_configuration(args.source_fanout, specs)
    if assignment is None:
        print("exact search: NO feasible configuration exists")
        return 1
    rows = [
        [name, spec.label(name), assignment[index]]
        for index, (name, spec) in enumerate(population)
    ]
    print("exact search: feasible; one witness depth assignment:")
    print(ascii_table(["node", "spec", "depth"], rows))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main()
    return 0


def _cmd_serve_soak(args: argparse.Namespace) -> int:
    import json

    from repro.par import Task, make_executor

    spec = _run_spec(
        args,
        size=args.consumers,
        timeline=None if args.timeline == "none" else args.timeline,
    )
    if spec is None:
        return 2
    seeds = [args.seed + offset for offset in range(max(1, args.repeats))]
    probe, summaries = None, []
    if args.trace_out:
        from repro.obs import RecordingProbe

        probe = RecordingProbe()
        summaries.append(run(spec, seeds[0], probe))
    outcomes = make_executor(args.workers).run_tasks(
        [
            Task(run, (spec, seed), label=f"soak@seed={seed}")
            for seed in seeds[len(summaries):]
        ]
    )
    for outcome in outcomes:
        if not outcome.ok:
            print(f"error: {outcome.label}: {outcome.error}", file=sys.stderr)
            return 1
        summaries.append(outcome.value)

    for seed, summary in zip(seeds, summaries):
        print(
            f"seed {seed}: {summary.service_rounds} service rounds "
            f"over {len(summary.feeds)} feeds, availability "
            f"{summary.availability:.1%}, "
            + (
                f"recovered {summary.time_to_recover} rounds"
                + (
                    f" ({summary.time_to_recover_ms:.0f}ms)"
                    if summary.time_to_recover_ms is not None
                    else ""
                )
                + " after the "
                f"last disruption (round {summary.last_disruption_round})"
                if summary.time_to_recover is not None
                else "not fully recovered"
            )
        )
        if summary.flash_joined:
            reconverge = (
                f"re-converged {summary.hot_reconverge_rounds} rounds "
                f"after the flash"
                if summary.hot_reconverge_rounds is not None
                else "never re-converged"
            )
            print(
                f"  flash crowd: +{summary.flash_joined} joiners on "
                f"'{summary.hot_feed}', {reconverge}, p99 "
                f"{summary.hot_p99_before:.2f} -> {summary.hot_p99_after:.2f} "
                f"delay units"
            )
        for stats in summary.feeds:
            ms = (
                f" ({stats.p50_ms:.0f}/{stats.p99_ms:.0f}/"
                f"{stats.p999_ms:.0f}ms)"
                if stats.p99_ms is not None
                else ""
            )
            print(
                f"  {stats.feed}: {stats.delivered} deliveries, staleness "
                f"p50/p99/p999 {stats.p50:.2f}/{stats.p99:.2f}/"
                f"{stats.p999:.2f}{ms}, availability {stats.availability:.1%}, "
                f"{stats.online} online"
                + (" (converged)" if stats.converged else "")
            )
        reuse = summary.reuse
        print(
            f"  reuse: {reuse.distinct_partnerships} partnerships carry "
            f"{reuse.total_edges} tree edges "
            f"({reuse.reuse_fraction:.1%} serve several feeds)"
        )

    if args.json:
        payload = [dataclasses.asdict(summary) for summary in summaries]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {len(payload)} summaries to {args.json}")
    if probe is not None:
        from repro.obs.export import write_trace

        count = write_trace(
            args.trace_out,
            probe.events,
            registry=probe.registry,
            header_extra={
                "feeds": spec.feeds,
                "seed": args.seed,
                "rounds": args.rounds,
                "timeline": args.timeline,
            },
        )
        print(f"wrote {count} events to {args.trace_out}")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    import json
    import math

    from repro.locality.geo import (
        PROFILES,
        GeoLatencyModel,
        get_profile,
        profile_names,
    )

    if args.list:
        rows = [
            [
                name,
                len(PROFILES[name].regions),
                PROFILES[name].pop_count,
                f"{PROFILES[name].round_ms:g}",
                f"{PROFILES[name].pull_period_ms:g}",
            ]
            for name in profile_names()
        ]
        print(
            ascii_table(
                ["profile", "regions", "pops", "round ms", "pull period ms"],
                rows,
            )
        )
        return 0
    try:
        profile = get_profile(args.profile)
        model = GeoLatencyModel(profile, args.seed)
        violating = model.triangle_violations(
            tolerance=args.triangle_tolerance
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"profile {profile.name}: {len(profile.regions)} regions x "
        f"{profile.pops_per_region} PoPs, round tick {profile.round_ms:g}ms, "
        f"pull period {profile.pull_period_ms:g}ms, seed {args.seed}"
    )
    print(
        "regions (weights): "
        + ", ".join(
            f"{name} ({weight:g})"
            for name, weight in zip(profile.regions, profile.region_weights)
        )
    )
    samples = sorted(
        model.sample_one_way_ms(max(1, args.samples), sample_seed=args.seed)
    )

    def nearest_rank(q: float) -> float:
        index = max(0, math.ceil(q / 100.0 * len(samples)) - 1)
        return samples[min(index, len(samples) - 1)]

    percentiles = {
        "min": samples[0],
        "p50": nearest_rank(50.0),
        "p90": nearest_rank(90.0),
        "p99": nearest_rank(99.0),
        "max": samples[-1],
    }
    print(
        ascii_table(
            ["one-way ms"] + list(percentiles),
            [["sampled pairs"] + [f"{value:.1f}" for value in percentiles.values()]],
        )
    )
    print(
        f"triangle inequality: {violating:.1%} of sampled PoP triples "
        f"violate at tolerance {args.triangle_tolerance:g}"
    )
    if args.matrix:
        labels = [
            f"{profile.regions[profile.pop_region(pop)]}/{pop % profile.pops_per_region}"
            for pop in range(profile.pop_count)
        ]
        print()
        print(
            ascii_table(
                ["pop"] + labels,
                [
                    [labels[a]] + [f"{ms:.1f}" for ms in row]
                    for a, row in enumerate(model.matrix)
                ],
            )
        )
    if args.json:
        payload = {
            "profile": profile.name,
            "seed": args.seed,
            "regions": list(profile.regions),
            "region_weights": list(profile.region_weights),
            "pops_per_region": profile.pops_per_region,
            "round_ms": profile.round_ms,
            "pull_period_ms": profile.pull_period_ms,
            "one_way_ms": percentiles,
            "triangle_violation_fraction": violating,
            "triangle_tolerance": args.triangle_tolerance,
            "matrix": model.matrix,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote profile description to {args.json}")
    return 0


def _load_trace(path: str):
    """Read a trace for the ``obs`` subcommands.

    Returns ``(trace, 0)`` on success or ``(None, 2)`` after printing a
    one-line diagnostic — missing files, non-JSONL content, and
    empty/truncated traces all exit 2 instead of raising.
    """
    import json

    from repro.obs.export import read_trace

    try:
        trace = read_trace(path)
    except OSError as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return None, 2
    except json.JSONDecodeError as error:
        print(f"error: {path} is not a JSONL trace ({error})", file=sys.stderr)
        return None, 2
    if not trace.header and not trace.events and not trace.metrics:
        print(
            f"error: {path} is empty or truncated (no trace records found)",
            file=sys.stderr,
        )
        return None, 2
    return trace, 0


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        counter_rows,
        event_count_rows,
        histogram_rows,
        phase_timing_rows,
    )

    trace, code = _load_trace(args.trace)
    if trace is None:
        return code
    if args.kind:
        kinds = {chunk.strip() for chunk in args.kind.split(",") if chunk.strip()}
        trace.events = [event for event in trace.events if event.kind in kinds]
    header = trace.header
    described = ", ".join(
        f"{key}={header[key]}"
        for key in ("workload", "algorithm", "oracle", "seed", "rounds")
        if key in header
    )
    if described:
        print(f"trace: {described}")
    filtered = f" (kind filter: {args.kind})" if args.kind else ""
    print(f"{len(trace.events)} events over {trace.rounds()} rounds{filtered}")
    extras = []
    if trace.health:
        extras.append(f"{len(trace.health)} health samples")
    if trace.spans:
        extras.append(f"{len(trace.spans)} delivery spans")
    if trace.attribution:
        extras.append(f"{len(trace.attribution)} attribution rows")
    if extras:
        print("v2 layers: " + ", ".join(extras))
    print()
    print(ascii_table(["event", "count", "per round"], event_count_rows(trace)))
    timing_rows = phase_timing_rows(trace)
    if timing_rows:
        print()
        print(
            ascii_table(
                ["phase", "seconds", "calls", "share"],
                [[p, s, c, f"{share:.1%}"] for p, s, c, share in timing_rows],
            )
        )
    subsystem_rows = counter_rows(trace)
    if subsystem_rows:
        print()
        print(ascii_table(["counter", "value"], subsystem_rows))
    metric_rows = histogram_rows(trace)
    if metric_rows:
        print()
        print(
            ascii_table(["histogram", "count", "mean", "min", "max"], metric_rows)
        )
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_html, render_markdown

    trace, code = _load_trace(args.trace)
    if trace is None:
        return code
    render = render_html if args.format == "html" else render_markdown
    document = render(trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(document, end="")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from repro.obs.report import render_top

    trace, code = _load_trace(args.trace)
    if trace is None:
        return code
    print(render_top(trace, tail=args.tail))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    return {
        "summarize": _cmd_obs_summarize,
        "report": _cmd_obs_report,
        "top": _cmd_obs_top,
    }[args.obs_command](args)


_COMMANDS = {
    "build": _cmd_build,
    "sweep": _cmd_sweep,
    "workload": _cmd_workload,
    "feasibility": _cmd_feasibility,
    "experiment": _cmd_experiment,
    "serve-soak": _cmd_serve_soak,
    "latency": _cmd_latency,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
