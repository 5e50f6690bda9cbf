"""The normalized bench JSON schema (``repro.bench/v1``).

Three document shapes share one schema family:

**Record** (``repro.bench/v1``) — one benchmark's full result::

    {
      "schema": "repro.bench/v1",
      "name": "chain_index.churn",
      "tags": ["core", "index"],
      "quick": true,
      "repeats": 1,
      "warmup": 0,
      "metrics": {
        "rounds_per_sec": {
          "values": [297.1], "median": 297.1, "iqr": 0.0,
          "unit": "rounds/s", "higher_is_better": true,
          "tolerance": 0.35, "deterministic": false
        }
      },
      "detail": { ... benchmark-specific payload ... },
      "failures": [],
      "seconds": 0.11,
      "env": {"git_sha": "...", "python": "3.11.9", "platform": "Linux",
              "implementation": "CPython", "machine": "x86_64", "cpu_count": 1},
      "recorded_at": "2026-08-06T12:00:00Z"
    }

**Run document** (``repro.bench/run/v1``) — what ``repro bench run
--output`` writes: ``{"schema", "env", "recorded_at", "records": [...]}``.

**History line** (``repro.bench/history/v1``) — the compact per-record
line appended to ``BENCH_HISTORY.jsonl``: name, quick flag, metric
*medians* only, failure count, env, timestamp.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence

RECORD_SCHEMA = "repro.bench/v1"
RUN_SCHEMA = "repro.bench/run/v1"
HISTORY_SCHEMA = "repro.bench/history/v1"

#: Keys every record must carry.
RECORD_REQUIRED = (
    "schema",
    "name",
    "tags",
    "quick",
    "repeats",
    "warmup",
    "metrics",
    "detail",
    "failures",
    "seconds",
    "env",
    "recorded_at",
)

#: Keys every per-metric entry must carry.
METRIC_REQUIRED = (
    "values",
    "median",
    "iqr",
    "unit",
    "higher_is_better",
    "tolerance",
    "deterministic",
)


def utc_now() -> str:
    """An ISO-8601 UTC timestamp (second resolution)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def validate_record(record: Mapping[str, object]) -> None:
    """Raise ``ValueError`` naming the first schema violation."""
    if not isinstance(record, Mapping):
        raise ValueError(f"record must be an object, got {type(record).__name__}")
    for key in RECORD_REQUIRED:
        if key not in record:
            raise ValueError(f"record is missing required key {key!r}")
    if record["schema"] != RECORD_SCHEMA:
        raise ValueError(
            f"record schema is {record['schema']!r}, expected {RECORD_SCHEMA!r}"
        )
    metrics = record["metrics"]
    if not isinstance(metrics, Mapping):
        raise ValueError("record 'metrics' must be an object")
    for name, entry in metrics.items():
        if not isinstance(entry, Mapping):
            raise ValueError(f"metric {name!r} must be an object")
        for key in METRIC_REQUIRED:
            if key not in entry:
                raise ValueError(f"metric {name!r} is missing key {key!r}")


def make_run_document(
    records: Sequence[Mapping[str, object]],
    env: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """The run document wrapping ``records``."""
    if env is None:
        from repro.bench.env import fingerprint

        env = fingerprint()
    return {
        "schema": RUN_SCHEMA,
        "env": dict(env),
        "recorded_at": utc_now(),
        "records": [dict(record) for record in records],
    }


def history_record(record: Mapping[str, object]) -> Dict[str, object]:
    """The compact history line for one record (medians only)."""
    metrics = record.get("metrics", {})
    return {
        "schema": HISTORY_SCHEMA,
        "name": record["name"],
        "quick": record.get("quick", False),
        "metrics": {
            name: entry.get("median") for name, entry in metrics.items()
        },
        "failures": len(record.get("failures", ())),
        "env": dict(record.get("env", {})),
        "recorded_at": record.get("recorded_at", utc_now()),
    }


def metric_medians(record: Mapping[str, object]) -> Dict[str, float]:
    """``{metric: median}`` of a full record or a compact history line."""
    metrics = record.get("metrics", {})
    medians: Dict[str, float] = {}
    for name, entry in metrics.items():
        if isinstance(entry, Mapping):
            value = entry.get("median")
        else:
            value = entry
        if value is not None:
            medians[name] = float(value)
    return medians


def record_names(records: Sequence[Mapping[str, object]]) -> List[str]:
    return [str(record.get("name")) for record in records]
