"""One pass of one workload in a fresh interpreter (child of ``run.py``).

``--mode timed``    plain clock around the three phases of every cell
``--mode counted``  the same under ``cProfile``: exact function-call counts
``--mode traced``   the same with the layer wrappers of ``layers.py``

Imports finish before the clock starts (the import time is reported,
not charged) and ``gc.collect()`` runs before every cell's clock.  The last line of standard output
is one JSON object; ``run.py`` reads nothing else.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from hostspeed import SpeedSampler, kernel_s  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "counted", "traced"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import recipes  # imports every repro entry point the workloads use
    from layers import Tracer, calls_by_package

    import_s = time.perf_counter() - import_start

    tracer = Tracer() if args.mode == "traced" else None
    # Two profilers so set-up and run are counted apart; enabling one
    # costs nothing measurable and its own disable() call is counted in
    # every pass alike.
    profilers = (
        {"setup": cProfile.Profile(), "run": cProfile.Profile()}
        if args.mode == "counted"
        else None
    )
    seconds = {"setup": 0.0, "run": 0.0}
    perf = time.perf_counter
    sampler = SpeedSampler()

    def phase(bucket: str, layer: str, func, *call_args):
        """Run one phase of a cell under this pass's instrument, between
        two timings of the host-speed kernel; returns ``(result,
        calibrated seconds)``."""
        profiler = profilers[bucket] if profilers else None
        kernel_before = kernel_s()
        if profiler:
            profiler.enable()
        start = perf()
        try:
            if tracer:
                out = tracer.call(layer, func, *call_args)
            else:
                out = func(*call_args)
        finally:
            end = perf()
            if profiler:
                profiler.disable()
        measured, calibrated = sampler.restate(start, end, kernel_before, kernel_s())
        seconds[bucket] += measured
        return out, calibrated

    def run_cell(cell, record) -> list:
        """Drive one cell through its three phases into ``record``;
        returns why it failed (empty: it passed).  A function of its
        own, so the engine and its result are garbage once it returns."""
        soak = cell.kind == "soak"
        if tracer:
            tracer.next_run(cell.label)
        made, record["generate_s"] = phase("setup", "workloads.generate", cell.generate)
        if tracer and not soak:
            tracer.attach(made, "build_overlay", "core.build_overlay", False)
        engine, record["construct_s"] = phase(
            "setup", "multifeed.ctor" if soak else "sim.ctor", cell.construct, made
        )
        if tracer:
            attach = tracer.attach_soak if soak else tracer.attach_engine
            attach(engine, required=cell.uses)
        result, record["run_s"] = phase(
            "run", "multifeed.loop" if soak else "sim.loop", engine.run
        )
        reader = recipes.read_soak if soak else recipes.read_sim
        record.update(reader(engine, result))
        return recipes.check_cell(cell, record)

    if tracer:
        tracer.attach_repair()
        # The sampler's handler runs inside whatever layer is active:
        # give it a span of its own or that layer's self time carries it.
        tracer.attach(sampler, "tick", "bench.clock", False)
    if not profilers:  # the counted pass would count the handler's calls
        sampler.start()
    cells = []
    failures = []
    for cell in recipes.WORKLOADS[args.workload](args.seed, args.smoke):
        record = {"label": cell.label, "digest": None}
        cells.append(record)
        # Outside every clock: a run neither pays for collecting the
        # previous run's garbage nor holds it at its own memory peak.
        gc.collect()
        try:
            problems = run_cell(cell, record)
        except Exception as exc:  # a run that raises is a failed run
            problems = [f"raised {type(exc).__name__}: {exc}"]
        record["failed"] = bool(problems)
        failures.extend(f"{cell.label}: {problem}" for problem in problems)
    sampler.stop()

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "import_s": import_s,
        "setup_s": seconds["setup"],
        "run_s": seconds["run"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": cells,
        "failures": failures,
    }
    if profilers:
        setup_entries = profilers["setup"].getstats()
        run_entries = profilers["run"].getstats()
        out["setup_calls"] = sum(entry.callcount for entry in setup_entries)
        out["total_calls"] = out["setup_calls"] + sum(
            entry.callcount for entry in run_entries
        )
        out["calls_by_package"] = calls_by_package(setup_entries + run_entries)
    if tracer:
        out["layers"] = tracer.totals()
        out["unresolved"] = tracer.unresolved
        out["relaxations"] = tracer.relaxations
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            out["spans_written"] = tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
