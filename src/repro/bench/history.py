"""``BENCH_HISTORY.jsonl``: the repo's append-only perf trajectory.

Every ``repro bench run`` appends one compact line per benchmark
(:func:`repro.bench.schema.history_record`): name, quick flag, metric
medians, failure count, environment fingerprint, timestamp.  The file
is plain JSONL so it diffs, greps and plots trivially, and ``repro
bench compare`` accepts it directly as either side of a comparison
(the latest line per benchmark name wins).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bench.schema import history_record

#: The default history file, relative to the working directory.
DEFAULT_HISTORY = "BENCH_HISTORY.jsonl"


def append_history(
    path: str, records: Sequence[Mapping[str, object]]
) -> int:
    """Append one compact line per record; returns the lines written."""
    lines = [history_record(record) for record in records]
    if not lines:
        return 0
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    return len(lines)


def read_history(path: str) -> List[Dict[str, object]]:
    """Parse a history file; blank lines are skipped.

    A missing file reads as empty history (the trajectory just has not
    started yet); a malformed line raises ``ValueError`` naming it.
    """
    if not os.path.exists(path):
        return []
    entries: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: not a JSON history line ({error})"
                ) from error
    return entries


def latest_by_name(
    entries: Sequence[Mapping[str, object]],
    quick: Optional[bool] = None,
) -> Dict[str, Dict[str, object]]:
    """The last entry per benchmark name, optionally filtered by scale.

    File order is chronological (the file is append-only), so "last
    line wins" is "latest run wins".
    """
    latest: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        name = entry.get("name")
        if not isinstance(name, str):
            continue
        if quick is not None and bool(entry.get("quick", False)) != quick:
            continue
        latest[name] = dict(entry)
    return latest
