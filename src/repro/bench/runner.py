"""The shared benchmark runner: warmup, repeats, stats, profile.

One code path runs every registered benchmark: optional warmup
invocations (discarded), ``repeats`` measured invocations, per-metric
median and IQR over the repeats, the environment fingerprint, and —
under ``profile=True`` — one extra invocation under :mod:`cProfile`
whose top-N cumulative-time rows are embedded in the record.  The
output is a normalized ``repro.bench/v1`` record
(:mod:`repro.bench.schema`).

Repeats default to each benchmark's registered count (the heavyweight
simulation benches register 1 — their *metrics* are seeded and exact,
repeats only stabilize timings) and can be overridden per run.
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import pstats
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.env import fingerprint
from repro.bench.registry import Benchmark, BenchContext, BenchResult
from repro.bench.schema import RECORD_SCHEMA, utc_now


@dataclasses.dataclass(frozen=True)
class RunnerConfig:
    """One run's knobs, shared by every selected benchmark."""

    quick: bool = False
    workers: int = 0
    repeats: Optional[int] = None  # None → the benchmark's registered count
    warmup: Optional[int] = None
    profile: bool = False
    profile_top: int = 15

    def context(self) -> BenchContext:
        return BenchContext(quick=self.quick, workers=self.workers)


def _iqr(values: Sequence[float]) -> float:
    """Interquartile range; 0 for fewer than two samples."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] - quartiles[0]


def _profile_rows(
    bench: Benchmark, context: BenchContext, top: int
) -> List[str]:
    """Top-``top`` cumulative-time lines of one profiled invocation."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        bench(context)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    lines = [line.rstrip() for line in buffer.getvalue().splitlines()]
    # Drop the header chatter up to the column row; keep the table.
    for index, line in enumerate(lines):
        if line.lstrip().startswith("ncalls"):
            return [l for l in lines[index:] if l.strip()]
    return [l for l in lines if l.strip()]


def run_benchmark(
    bench: Benchmark, config: Optional[RunnerConfig] = None
) -> Dict[str, object]:
    """Run one benchmark under ``config``; return its v1 record."""
    config = config or RunnerConfig()
    context = config.context()
    warmup = bench.warmup if config.warmup is None else config.warmup
    repeats = bench.repeats if config.repeats is None else config.repeats
    if repeats < 1:
        repeats = 1

    for _ in range(warmup):
        bench(context)

    started = time.perf_counter()
    results: List[BenchResult] = []
    for _ in range(repeats):
        results.append(bench(context))
    seconds = time.perf_counter() - started

    values: Dict[str, List[float]] = {}
    for result in results:
        for name, value in result.metrics.items():
            values.setdefault(name, []).append(float(value))
    metrics: Dict[str, Dict[str, object]] = {}
    for name, series in values.items():
        spec = bench.metric_spec(name)
        metrics[name] = {
            "values": series,
            "median": statistics.median(series),
            "iqr": _iqr(series),
            **spec.as_dict(),
        }

    failures: List[str] = []
    for result in results:
        for failure in result.failures:
            if failure not in failures:
                failures.append(failure)

    record: Dict[str, object] = {
        "schema": RECORD_SCHEMA,
        "name": bench.name,
        "tags": list(bench.tags),
        "quick": config.quick,
        "repeats": repeats,
        "warmup": warmup,
        "metrics": metrics,
        "detail": dict(results[-1].detail),
        "failures": failures,
        "seconds": seconds,
        "env": fingerprint(),
        "recorded_at": utc_now(),
    }
    if config.profile:
        record["profile"] = _profile_rows(bench, context, config.profile_top)
    return record


def run_benchmarks(
    benches: Sequence[Benchmark],
    config: Optional[RunnerConfig] = None,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
) -> List[Dict[str, object]]:
    """Run ``benches`` in order; ``progress`` sees each finished record."""
    records: List[Dict[str, object]] = []
    for bench in benches:
        record = run_benchmark(bench, config)
        records.append(record)
        if progress is not None:
            progress(record)
    return records
