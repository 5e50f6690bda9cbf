"""The sweep worker: runs one :class:`~repro.par.items.SweepItem`.

This is the *only* code that executes sweep work, for every backend —
the serial executor calls :func:`execute_item` in-process and the pooled
executor calls it inside worker processes — so the two paths cannot
drift apart.  The body reproduces ``run_repeats``'s per-repeat protocol
verbatim: build the workload from ``(family, population, workload_seed)``
(or from the item's ``recipe``, as :func:`repro.spec.run` does), then
run the simulation with ``config.with_(seed=seed)``.

Failures never propagate: any exception raised while running an item is
captured into the returned :class:`~repro.par.items.SweepOutcome` with
the item's family/seed/config in the message, so one bad seed marks its
cell failed while the rest of the sweep proceeds.

Workload memoization: a fixed-draw sweep (``vary_workload=False``) gives
every item the same ``(family, population, workload_seed)`` key, so the
worker keeps a size-one memo of the last workload built — one
``make_workload`` call per fixed-draw sweep instead of one per repeat
(workloads are immutable value objects, so replaying one instance is
exactly Fig. 2's protocol).  The serial executor passes a fresh memo per
sweep; pooled workers share a per-process one.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Dict, Optional

from repro.par.items import SweepItem, SweepOutcome
from repro.workloads import make as make_workload

#: Per-process workload memo for pooled workers ({"key": ..., "workload": ...}).
_PROCESS_MEMO: Dict[str, Any] = {}


def _workload_for(item: SweepItem, memo: Dict[str, Any]):
    """The item's workload (its recipe's, when it carries one), via the
    size-one memo."""
    key = (item.family, item.population, item.workload_seed, item.recipe)
    if memo.get("key") != key:
        memo["key"] = key
        if item.recipe is not None:
            memo["workload"] = item.recipe.make_workload(item.workload_seed)
        else:
            memo["workload"] = make_workload(
                item.family, size=item.population, seed=item.workload_seed
            )
    return memo["workload"]


def _trace_path(trace_dir: str, position: int, item: SweepItem) -> str:
    name = (
        f"{position:04d}_{item.family}_{item.config.algorithm}_"
        f"{item.config.oracle}_seed{item.seed}.jsonl"
    )
    return os.path.join(trace_dir, name)


def execute_item(
    item: SweepItem,
    position: int = 0,
    collect_obs: bool = False,
    trace_dir: Optional[str] = None,
    collect_health: bool = False,
    memo: Optional[Dict[str, Any]] = None,
) -> SweepOutcome:
    """Run one sweep item; always returns (never raises).

    With ``collect_obs`` or ``trace_dir`` the run carries a
    :class:`~repro.obs.probe.RecordingProbe`; with ``collect_health``
    the flight-recorder health timeseries stays on and its samples ride
    back in ``outcome.health`` (and into the per-seed trace when one is
    written).  Neither recorder consumes RNG or changes outcomes (the
    :mod:`repro.obs` invariant), so observed and unobserved sweeps stay
    bit-identical.  ``position`` is the item's submission index, used
    only to keep trace filenames unique.

    The run goes through :func:`repro.spec.execute`; a ``paths > 1``
    item reports :meth:`~repro.multipath.delivery.MultipathResult.summary`
    and keeps the single-overlay health timeseries off.
    """
    # Imported here so a pool started with the "spawn" method can still
    # resolve everything after a bare interpreter boot.
    from repro.multipath.delivery import MultipathResult
    from repro.obs.export import write_trace
    from repro.obs.health import HealthConfig
    from repro.obs.probe import RecordingProbe
    from repro.spec import execute

    if memo is None:
        memo = _PROCESS_MEMO
    try:
        workload = _workload_for(item, memo)
        # with_() re-validates, so an item no config could describe
        # (say paths > 1 with asynchrony) fails here instead of running.
        config = item.config.with_(seed=item.seed)
        if collect_health and config.health is None and config.paths == 1:
            config = config.with_(health=HealthConfig())
        probe = RecordingProbe() if (collect_obs or trace_dir) else None
        engine, result = execute(workload, config, probe)
        phase_timings: Dict[str, Dict[str, float]] = {}
        health = None
        if isinstance(result, MultipathResult):
            result = result.summary()
        else:
            phase_timings = engine.timings.summary()
            if collect_health and engine.health is not None:
                health = engine.health.records()
        trace_path = None
        if trace_dir is not None:
            trace_path = _trace_path(trace_dir, position, item)
            write_trace(
                trace_path,
                probe.events,
                phase_timings=phase_timings,
                registry=probe.registry,
                header_extra={
                    "workload": workload.name,
                    "family": item.family,
                    "algorithm": config.algorithm,
                    "oracle": config.oracle,
                    "seed": item.seed,
                    "workload_seed": item.workload_seed,
                    "rounds": result.rounds_run,
                },
                health=health,
            )
        return SweepOutcome(
            item=item,
            result=result,
            counters=probe.registry.snapshot() if collect_obs else None,
            health=health,
            trace_path=trace_path,
        )
    except Exception as error:  # noqa: BLE001 — the contract is "never raise"
        return SweepOutcome(
            item=item,
            error=(
                f"sweep item failed ({item.describe()}): "
                f"{type(error).__name__}: {error}"
            ),
            traceback=traceback.format_exc(),
        )
