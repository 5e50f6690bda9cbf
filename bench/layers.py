"""The outside-in layer trace: spans around the calls into each layer.

Nothing inside ``src/repro`` is edited.  The traced pass replaces, on
the instances and module globals the benchmark itself drives, the
bound methods named in :data:`ENGINE_POINTS` / :data:`SOAK_POINTS` with
timing wrappers.  Attach points are resolved *by name at run time*: one
that no longer resolves is remembered in :attr:`Tracer.unresolved`, its
metrics read ``null`` and the run goes on, so a refactor of the round
loops or the node-state backend does not need an edit here.

Accounting: every wrapper pushes a frame; on return its duration is
charged to the frame beneath as child time, and its **self** time
(duration minus child time) to its own layer.  The three phases of a
cell (generate / construct / run) are wrapped the same way, so a pass's
layer self times sum to its ``total_s`` exactly.  One span is kept per
(run, round or tick, layer): start, busy (self) seconds, inclusive
seconds, call count, parent layer.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Optional, Tuple

#: (attribute path from the engine, layer, first argument is the round).
#: ``oracle.on_round(now)`` / ``churn.step(now)`` / ``metrics.record(now)``
#: / ``injector.inject(now)`` carry the round number, which is how spans
#: learn which round they belong to without reading simulator state.
ENGINE_POINTS: Tuple[Tuple[str, str, bool], ...] = (
    ("churn.step", "sim.churn", True),
    ("oracle.on_round", "oracles.on_round", True),
    ("oracle.sample", "oracles.sample", False),
    ("algorithm.step", "core.step", False),
    ("algorithm.maintain", "core.maintain", False),
    ("metrics.record", "core.measure", True),
    ("overlay.attach", "core.attach", False),
    ("overlay.detach", "core.detach", False),
    ("overlay.go_offline", "core.offline", False),
    ("overlay.go_online", "core.online", False),
    ("geo.one_way_ms", "locality.lookup", False),
)

#: Per-soak points; the per-feed ones repeat for every feed id.
SOAK_POINTS: Tuple[Tuple[str, str, bool], ...] = (
    ("system.step_feed", "multifeed.step_feed", False),
    ("injector.inject", "faults.inject", True),
    ("geo.one_way_ms", "locality.lookup", False),
)
SOAK_FEED_POINTS: Tuple[Tuple[str, str, bool], ...] = (
    ("engines[].start_direct_pullers", "feeds.disseminate", False),
    ("engines[].scheduler.run_until", "feeds.disseminate", False),
    ("system.oracles[].on_round", "oracles.on_round", True),
    ("system.oracles[].sample", "oracles.sample", False),
    ("system.algorithms[].step", "core.step", False),
    ("system.algorithms[].maintain", "core.maintain", False),
    ("system.overlays[].attach", "core.attach", False),
    ("system.overlays[].detach", "core.detach", False),
    ("system.overlays[].go_offline", "core.offline", False),
    ("system.overlays[].go_online", "core.online", False),
)

#: Points a workload leaves out by design (a static run has no churn
#: process, a rounds-clock run no latency model): absent means 0 work,
#: not a broken attach point.
OPTIONAL = {"churn.step", "geo.one_way_ms"}


class Tracer:
    """Frames, per-(run, round, layer) spans and per-layer totals."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: Active frames, innermost last: ``[child_seconds, layer]``.
        self.stack: List[list] = [[0.0, "bench"]]
        #: Open spans of the current (run, round): layer ->
        #: ``[start, self_s, calls, parent, inclusive_s]``.
        self._open: Dict[str, list] = {}
        self._closed: List[Tuple[str, int, Dict[str, list]]] = []
        self.run_id = ""
        self.round = 0
        #: Layers whose attach point did not resolve (metrics -> null).
        self.unresolved: Dict[str, str] = {}
        self.relaxations = 0

    # -- wrapping -------------------------------------------------------

    def wrap(self, func, layer: str, round_arg: bool = False):
        """``func`` with a span of ``layer`` around every call."""
        stack = self.stack
        open_spans = self._open
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if round_arg and args and args[0] != tracer.round:
                tracer.next_round(args[0])
            frame = [0.0, layer]
            parent = stack[-1]
            stack.append(frame)
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[0] += elapsed
                span = open_spans.get(layer)
                if span is None:
                    span = open_spans[layer] = [start, 0.0, 0, parent[1], 0.0]
                span[1] += elapsed - frame[0]
                span[2] += 1
                span[4] += elapsed

        return traced

    def call(self, layer: str, func, *args):
        """Run one phase of a cell as a span of ``layer``."""
        return self.wrap(func, layer)(*args)

    def attach(
        self, root, path: str, layer: str, round_arg: bool, key=None, required=()
    ) -> None:
        """Replace the bound method at ``path`` under ``root`` (``[]``
        indexes a dict with ``key``) by its traced twin.  ``required``
        names the :data:`OPTIONAL` points this cell does exercise."""
        *owners, name = path.split(".")
        try:
            target = root
            for part in owners:
                if part.endswith("[]"):
                    target = getattr(target, part[:-2])[key]
                else:
                    target = getattr(target, part)
            if target is None:
                raise AttributeError(f"{'.'.join(owners)} is None")
            method = getattr(target, name)
            # object.__setattr__ so frozen dataclass instances (Workload)
            # take the instance attribute like any other object.
            object.__setattr__(target, name, self.wrap(method, layer, round_arg))
        except (AttributeError, KeyError, TypeError) as exc:
            if path not in OPTIONAL or path in required:
                self.unresolved[layer] = f"{path}: {exc}"

    def attach_engine(self, engine, required=()) -> None:
        for path, layer, round_arg in ENGINE_POINTS:
            self.attach(engine, path, layer, round_arg, required=required)

    def attach_soak(self, soak, required=()) -> None:
        for path, layer, round_arg in SOAK_POINTS:
            self.attach(soak, path, layer, round_arg, required=required)
        try:
            feeds = list(soak.config.feed_ids)
        except AttributeError as exc:
            feeds = []
            self.unresolved["multifeed.step_feed"] = f"config.feed_ids: {exc}"
        for feed in feeds:
            for path, layer, round_arg in SOAK_FEED_POINTS:
                self.attach(soak, path, layer, round_arg, key=feed)

    def attach_repair(self) -> None:
        """Wrap ``repair_population`` in every loaded ``repro`` module
        that imported it by name (the generators and ``MultiFeedSystem``
        call it through their own module global)."""
        try:
            target = sys.modules["repro.workloads.repair"].repair_population
        except (KeyError, AttributeError) as exc:
            self.unresolved["workloads.repair"] = f"repair_population: {exc}"
            return
        inner = self.wrap(target, "workloads.repair")

        def traced_repair(*args, **kwargs):
            out = inner(*args, **kwargs)
            # (population, RepairReport): the report is read, not timed.
            self.relaxations += getattr(out[1], "relaxations", 0)
            return out

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and (
                getattr(module, "repair_population", None) is target
            ):
                module.repair_population = traced_repair

    # -- spans ----------------------------------------------------------

    def next_round(self, round_: int) -> None:
        self._flush()
        self.round = round_

    def next_run(self, run_id: str) -> None:
        self._flush()
        self.run_id = run_id
        self.round = 0

    def _flush(self) -> None:
        if self._open:
            # The wrappers hold this dict, so it is emptied, not replaced.
            self._closed.append((self.run_id, self.round, dict(self._open)))
            self._open.clear()

    def totals(self) -> Dict[str, Dict[str, float]]:
        """layer -> summed self seconds, inclusive seconds and calls."""
        self._flush()
        out: Dict[str, Dict[str, float]] = {}
        for _run, _round, spans in self._closed:
            for layer, (_start, self_s, calls, _parent, incl) in spans.items():
                total = out.setdefault(layer, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
                total["self_s"] += self_s
                total["incl_s"] += incl
                total["calls"] += calls
        return out

    def write(self, path) -> int:
        """One JSON line per span; returns how many were written."""
        self._flush()
        count = 0
        with open(path, "w", encoding="utf-8") as out:
            for run_id, round_, spans in self._closed:
                for layer, (start, self_s, calls, parent, incl) in spans.items():
                    out.write(
                        json.dumps(
                            {
                                "run": run_id,
                                "round": round_,
                                "layer": layer,
                                "parent": parent,
                                "start_s": start - self.origin,
                                "busy_s": self_s,
                                "incl_s": incl,
                                "calls": calls,
                            }
                        )
                    )
                    out.write("\n")
                    count += 1
        return count


def calls_by_package(entries) -> Dict[str, int]:
    """``cProfile`` entries grouped by the ``repro`` package that defines
    the function; C builtins under ``builtin``, everything else (stdlib
    Python such as ``random.randint``, the benchmark's own glue) under
    ``other``.  The groups sum to the profile's total calls."""
    groups: Dict[str, int] = {}
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            package = "builtin"
        else:
            _, marker, tail = code.co_filename.replace("\\", "/").rpartition("/repro/")
            package = tail.split("/")[0] if marker and "/" in tail else "other"
        groups[package] = groups.get(package, 0) + entry.callcount
    return groups


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    unresolved: Dict[str, str],
    sums: Dict[str, float],
) -> Dict[str, Optional[float]]:
    """The T and R per-layer metrics of one traced pass.

    ``sums`` holds the outcome counters summed over the pass's runs.
    ``None`` marks a metric whose attach point did not resolve."""

    def of(layer: str, field: str) -> Optional[float]:
        if layer in unresolved:
            return None
        return totals.get(layer, {}).get(field, 0)

    def ratio(top: Optional[float], bottom: Optional[float]) -> Optional[float]:
        if top is None or bottom is None:
            return None
        return top / bottom if bottom else 0.0

    hits, misses = sums["oracle_hits"], sums["oracle_misses"]
    queries = None if hits is None or misses is None else hits + misses
    churn_self = of("sim.churn", "self_s")
    sample_s, sample_calls = of("oracles.sample", "self_s"), of("oracles.sample", "calls")
    step_calls = of("core.step", "calls")
    return {
        "workloads.generate_s": of("workloads.generate", "self_s"),
        "workloads.repair_s": of("workloads.repair", "self_s"),
        "workloads.repair_relaxations": (
            None if "workloads.repair" in unresolved else sums["relaxations"]
        ),
        "core.build_overlay_s": of("core.build_overlay", "self_s"),
        "core.step_s": of("core.step", "self_s"),
        "core.step_calls": step_calls,
        "core.maintain_s": of("core.maintain", "self_s"),
        "core.maintain_calls": of("core.maintain", "calls"),
        "core.attach_s": of("core.attach", "self_s"),
        "core.detach_s": of("core.detach", "self_s"),
        "core.offline_s": of("core.offline", "self_s"),
        "core.online_s": of("core.online", "self_s"),
        "core.measure_s": of("core.measure", "self_s"),
        "core.attaches": sums["attaches"],
        "core.detaches": sums["detaches"],
        "core.step_attach_ratio": ratio(sums["attaches"], step_calls),
        "oracles.sample_s": sample_s,
        "oracles.sample_calls": sample_calls,
        "oracles.sample_us": (
            None if ratio(sample_s, sample_calls) is None
            else ratio(sample_s, sample_calls) * 1e6
        ),
        "oracles.on_round_s": of("oracles.on_round", "self_s"),
        "oracles.hit_ratio": ratio(hits, queries),
        "sim.ctor_s": of("sim.ctor", "self_s"),
        "sim.churn_s": churn_self,
        "sim.churn_incl_s": of("sim.churn", "incl_s"),
        "sim.churn_events": sums["churn_events"],
        "sim.loop_self_s": of("sim.loop", "self_s"),
        "sim.events_fired": sums["events"],
        "multifeed.ctor_s": of("multifeed.ctor", "self_s"),
        "multifeed.step_feed_s": of("multifeed.step_feed", "self_s"),
        "multifeed.step_feed_calls": of("multifeed.step_feed", "calls"),
        "multifeed.loop_self_s": of("multifeed.loop", "self_s"),
        "feeds.disseminate_s": of("feeds.disseminate", "self_s"),
        "feeds.items_delivered": sums["items_delivered"],
        "feeds.deliveries_per_s": ratio(
            sums["items_delivered"], of("feeds.disseminate", "incl_s")
        ),
        "faults.inject_s": of("faults.inject", "self_s"),
        "faults.injected": sums["faults_injected"],
        "locality.lookup_s": of("locality.lookup", "self_s"),
        "locality.lookup_calls": of("locality.lookup", "calls"),
    }
