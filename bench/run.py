"""The repo benchmark: one workload per invocation, every metric by name.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` makes *timed* passes (tracing off) for ``--seconds``
seconds, never fewer than three, and prints the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` makes one timed, one *traced* and one
*counted* pass and prints the per-layer metrics; the spans go to
``bench/out/trace-<workload>.jsonl``.  Every pass is a fresh child
interpreter (``onepass.py``), one at a time, so a pass shares no warm
state with another and reports its own peak RSS.

Every pass of one invocation replays the same seeded runs, so their
``sim_digest`` must be identical: timing, counting and tracing may not
perturb a seeded simulation.  A run that raises, breaks an overlay
invariant, misses a quality floor or changes its digest is a failed
run, named on a ``FAIL`` line; any failure makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from layers import layer_metrics  # noqa: E402  (stdlib-only sibling)

#: Fewest timed cycles behind a wall-clock figure (two at smoke scale).
MIN_CYCLES = 3
MAX_CYCLES = 10
#: The caller allows one invocation 180 s.  The slowest one here (three
#: passes of the soak, one under cProfile) takes 30-50 s; a child still
#: running at this point is stopped and reported as a failed pass.
INVOCATION_LIMIT_S = 170

#: The call groups the counted pass reports by name (``repro`` packages
#: and C builtins); every other group is printed as ``other.calls``.
PACKAGES = (
    "workloads", "core", "oracles", "sim", "multifeed", "feeds", "faults",
    "locality", "obs", "builtin",
)
#: Outcome counters summed over a pass's runs for the R layer metrics.
COUNTERS = (
    "events", "attaches", "detaches", "oracle_hits", "oracle_misses",
    "churn_events", "faults_injected", "items_delivered",
)


class Passes:
    """Runs child passes one at a time and keeps what they reported."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = time.monotonic() + INVOCATION_LIMIT_S
        self.done: List[Dict[str, object]] = []
        self.crashes: List[str] = []

    def run(self, mode: str) -> Optional[Dict[str, object]]:
        command = [
            sys.executable, str(BENCH_DIR / "onepass.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
        ]
        if self.smoke:
            command.append("--smoke")
        if mode == "traced":
            trace_path = BENCH_DIR / "out" / f"trace-{self.workload}.jsonl"
            command += ["--trace-out", str(trace_path)]
        try:
            child = subprocess.run(
                command, capture_output=True, text=True,
                timeout=max(self.deadline - time.monotonic(), 1.0),
            )
            if child.returncode != 0:
                raise RuntimeError(
                    f"exit code {child.returncode}: {child.stderr.strip()[-400:]}"
                )
            report = json.loads(child.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
            self.crashes.append(f"{mode} pass: {exc}")
            return None
        self.done.append(report)
        return report

    # -- correctness over all passes ------------------------------------

    def verdict(self):
        """``(attempted, failed, stable, digest, fail_lines)`` over every
        pass made: failed runs are those the child flagged plus those
        whose digest differs from the first pass's run of the same label."""
        lines = [f"child {crash}" for crash in self.crashes]
        reference = {c["label"]: c["digest"] for c in self.done[0]["cells"]} if self.done else {}
        runs_per_pass = max(len(reference), 1)
        attempted = runs_per_pass * len(self.crashes)
        failed = attempted
        digests = set()
        for report in self.done:
            lines.extend(f"{report['mode']} pass: {f}" for f in report["failures"])
            digests.add(pass_digest(report))
            for cell in report["cells"]:
                attempted += 1
                if cell["failed"]:
                    failed += 1
                elif cell["digest"] != reference.get(cell["label"]):
                    failed += 1
                    lines.append(
                        f"{report['mode']} pass: {cell['label']}: sim_digest differs "
                        "from the first pass (a seeded run was perturbed)"
                    )
        stable = bool(self.done) and not self.crashes and len(digests) == 1
        digest = sorted(digests)[0] if digests else "none"
        return attempted, failed, stable, digest, lines


def usable(report: Optional[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """The pass, if every run of it finished and passed its checks.  A
    failed run may lack any field, so a pass with one carries no
    metrics; ``Passes.verdict`` still counts and names it."""
    if report is None or any(cell["failed"] for cell in report["cells"]):
        return None
    return report


def pass_digest(report: Dict[str, object]) -> str:
    joined = "".join(str(cell["digest"]) for cell in report["cells"])
    return hashlib.sha256(joined.encode()).hexdigest()


def mean_of(report: Dict[str, object], field: str) -> float:
    return statistics.fmean(cell[field] for cell in report["cells"])


def median_of(report: Dict[str, object], field: str) -> float:
    return statistics.median(cell.get(field, 0.0) for cell in report["cells"])


def sum_of(report: Dict[str, object], field: str) -> Optional[float]:
    """Sum over the pass's runs; ``None`` if a run could not read it."""
    values = [cell.get(field, 0) for cell in report["cells"]]
    return None if None in values else sum(values)


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ----------------------------------------------------------------------


def steady_seconds(cycles: List[Dict[str, object]]):
    """``(setup_s, run_s)`` of the workload in calibrated seconds.

    Every child reports each phase of each run already restated at the
    reference host speed (``hostspeed.py``).  A seeded run does identical
    work in every cycle, so each phase of each run is charged its median
    over the cycles and the phases are summed."""
    setup = run = 0.0
    for same_cell in zip(*(cycle["cells"] for cycle in cycles)):
        setup += statistics.median(c["generate_s"] for c in same_cell)
        setup += statistics.median(c["construct_s"] for c in same_cell)
        run += statistics.median(c["run_s"] for c in same_cell)
    return setup, run


def end_to_end(passes: Passes, seconds: float) -> Dict[str, Optional[float]]:
    started = time.monotonic()
    cycles: List[Dict[str, object]] = []
    while len(cycles) + len(passes.crashes) < MAX_CYCLES:
        report = usable(passes.run("timed"))
        if report is None:  # named on a FAIL line; no metric is reported
            return {}
        cycles.append(report)
        if passes.smoke:
            if len(cycles) == 2:
                break
        elif len(cycles) >= MIN_CYCLES:
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(cycles) / 2 >= seconds:
                break
    totals = [c["setup_s"] + c["run_s"] for c in cycles]
    for index, cycle in enumerate(cycles):
        print(f"cycle {index} measured setup {cycle['setup_s']:.4f} s run {cycle['run_s']:.4f} s")
    print(f"bench.cycles {len(cycles)} count")
    print(f"bench.cycle_spread {max(totals) / min(totals):.4f} ratio")
    print(f"bench.import_s {statistics.median(c['import_s'] for c in cycles):.4f} s")
    setup_s, run_s = steady_seconds(cycles)
    first = cycles[0]
    rounds = sum_of(first, "rounds")
    # Exact per seed, but differing between seeds by more than any
    # bound (README, *Outcomes*): shown here, gated nowhere.
    print(f"total_s {setup_s + run_s} s")
    print(f"rounds {rounds} rounds")
    print(f"satisfied_fraction {mean_of(first, 'satisfied_fraction')} ratio")
    print(f"availability {mean_of(first, 'availability')} ratio")
    return {
        "setup_s": setup_s,
        "total_ms_per_round": 1000.0 * (setup_s + run_s) / rounds,
        "rounds_per_s": rounds / run_s,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in cycles),
    }


# ----------------------------------------------------------------------
# --trace 1: the per-layer metrics
# ----------------------------------------------------------------------


def per_layer(passes: Passes) -> Dict[str, Optional[float]]:
    timed = usable(passes.run("timed"))
    traced = usable(passes.run("traced"))
    counted = usable(passes.run("counted"))
    metrics: Dict[str, Optional[float]] = {}
    if traced:
        for layer, why in traced["unresolved"].items():
            print(f"WARN attach point for {layer} did not resolve ({why}); "
                  "its metrics read null")
        sums = {name: sum_of(traced, name) for name in COUNTERS}
        sums["relaxations"] = traced["relaxations"]
        metrics.update(layer_metrics(traced["layers"], traced["unresolved"], sums))
        metrics["sim.satisfied_fraction"] = mean_of(traced, "satisfied_fraction")
        metrics["sim.availability"] = mean_of(traced, "availability")
        metrics["sim.construction_rounds"] = median_of(traced, "construction_rounds")
        metrics["sim.staleness_ms_p99"] = median_of(traced, "staleness_ms_p99")
        metrics["feeds.staleness_p99"] = median_of(traced, "staleness_p99")
        metrics["faults.recover_rounds"] = median_of(traced, "recover_rounds")
        # The traced pass's own total (its layer self times sum to it)
        # and what the speed sampler took of it, for the reader.
        print(f"bench.traced_setup_s {traced['setup_s']} s")
        print(f"bench.traced_run_s {traced['run_s']} s")
        print(f"bench.clock_s {traced['layers'].get('bench.clock', {}).get('self_s', 0.0)} s")
        print(f"trace {traced.get('spans_written', 0)} spans in "
              f"bench/out/trace-{passes.workload}.jsonl")
    if counted:
        metrics["setup_calls"] = counted["setup_calls"]
        metrics["total_calls"] = counted["total_calls"]
        groups = dict(counted["calls_by_package"])
        for package in PACKAGES:
            metrics[f"{package}.calls"] = groups.pop(package, 0)
        # stdlib Python and the benchmark's own glue: with the named
        # groups it sums to total_calls.
        print(f"other.calls {sum(groups.values())} calls")
    if timed:
        timed_setup, timed_run = steady_seconds([timed])
        metrics["total_s"] = timed_setup + timed_run
        events = sum_of(timed, "events")
        metrics["sim.events_per_s"] = None if events is None else events / timed_run
        metrics["bench.import_s"] = timed["import_s"]
        # Calibrated seconds on both sides, or the host's speed at the
        # moment of either pass would decide the ratio.
        if traced:
            metrics["bench.trace_overhead"] = sum(steady_seconds([traced])) / (
                timed_setup + timed_run
            )
        # The counted pass samples no host speed (the kernel's calls
        # would be counted), so this one compares measured seconds.
        if counted:
            metrics["bench.count_overhead"] = (
                counted["setup_s"] + counted["run_s"]
            ) / (timed["setup_s"] + timed["run_s"])
    return metrics


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes measure "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny populations, two cycles: the self-test scale")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    passes = Passes(args.workload, args.seed, args.smoke)
    print(f"workload {args.workload} seed {args.seed} "
          f"{'smoke' if args.smoke else 'full'} scale, trace {args.trace}")
    measured = per_layer(passes) if args.trace else end_to_end(passes, seconds)
    attempted, failed, stable, digest, fail_lines = passes.verdict()
    measured["sim_stable"] = 1 if stable else 0
    print(f"sim_digest {digest}")

    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = measured.get(name)
        print(f"{name} {'null' if value is None else value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    missing = [e["name"] for e in declared if measured.get(e["name"]) is None]
    if missing and not passes.crashes and not args.trace:
        fail_lines.append(f"metrics not measured: {missing}")
    for line in fail_lines:
        print(f"FAIL {args.workload} {line}")
    correct = failed == 0 and stable and not fail_lines
    print(f"runs attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
