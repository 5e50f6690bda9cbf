"""``repro.bench`` — the registry-driven benchmark harness.

Layers (see docs/BENCHMARKS.md for the guide):

* :mod:`repro.bench.registry` — ``@register``-able named benchmarks
  with typed :class:`Metric` declarations (direction, noise tolerance,
  determinism);
* :mod:`repro.bench.runner` — the shared runner: warmup, repeats,
  median/IQR, environment fingerprint, optional cProfile;
* :mod:`repro.bench.schema` — the normalized ``repro.bench/v1`` JSON
  record/run/history shapes;
* :mod:`repro.bench.history` — the append-only ``BENCH_HISTORY.jsonl``
  perf trajectory;
* :mod:`repro.bench.compare` — the noise-aware regression gate behind
  ``repro bench compare``;
* :mod:`repro.bench.suites` — the built-in benchmarks (chain index,
  chaos soak + backoff A/B, parallel sweep, Fig. 2/3/4 grids).
"""

from repro.bench.compare import CompareReport, MetricDelta, compare, compare_files
from repro.bench.env import fingerprint, fingerprints_match
from repro.bench.history import (
    DEFAULT_HISTORY,
    append_history,
    latest_by_name,
    read_history,
)
from repro.bench.registry import (
    REGISTRY,
    Benchmark,
    BenchmarkRegistry,
    BenchContext,
    BenchResult,
    Metric,
    load_suites,
    register,
)
from repro.bench.runner import RunnerConfig, run_benchmark, run_benchmarks
from repro.bench.schema import (
    HISTORY_SCHEMA,
    RECORD_SCHEMA,
    RUN_SCHEMA,
    history_record,
    make_run_document,
    validate_record,
)

__all__ = [
    "REGISTRY",
    "Benchmark",
    "BenchmarkRegistry",
    "BenchContext",
    "BenchResult",
    "CompareReport",
    "DEFAULT_HISTORY",
    "HISTORY_SCHEMA",
    "Metric",
    "MetricDelta",
    "RECORD_SCHEMA",
    "RUN_SCHEMA",
    "RunnerConfig",
    "append_history",
    "compare",
    "compare_files",
    "fingerprint",
    "fingerprints_match",
    "history_record",
    "latest_by_name",
    "load_suites",
    "make_run_document",
    "read_history",
    "register",
    "run_benchmark",
    "run_benchmarks",
    "validate_record",
]
