"""Causal update tracing and staleness attribution.

LagOver's product is *gradated staleness*, so "how stale" is never the
whole question — the question is **where the staleness comes from**.
This module answers it in both of the reproduction's clocks:

**Feed clock** (:class:`SpanRecorder`): every published item is a trace
(its ``seq`` is the trace id); the dissemination engine records one
:class:`Span` per delivery edge — the direct child's pull (spanning
publish → pull) and every overlay push hop (spanning forward → receive).
For any consumer and item, :meth:`SpanRecorder.attribute` walks the
span chain back to the source and decomposes the observed staleness as

    ``staleness = pull_wait + transit + hold``

— the wait for the direct child's next pull tick, the summed per-hop
forwarding delays, and the summed interior hold gaps between receiving
an item and forwarding it.  The identity telescopes, so the components
sum to the measured staleness *exactly* (pinned at N=2000 in
``tests/test_obs_v2.py``).  A critical-path extractor names the slowest
edge chain per trace.

**Construction clock** (:class:`StalenessAttributor`): while a consumer
is rooted its information age is its delay (tree depth).  When it is cut
off, the last-received information keeps aging one round per round, and
each such round is charged to exactly one named bucket — detach gaps
spent parented-but-unrooted (``fragment_wait``), source/oracle outage
windows (``outage_stall``), backoff windows (``backoff_stall``), or
plain partner search (``search_wait``).  Per consumer, at every round::

    age = depth + fragment_wait + outage_stall + backoff_stall + search_wait

where ``age`` is measured by an independent counter — a round charged to
zero buckets or to two breaks the identity, which is what the
acceptance test checks across both algorithms and all four oracles.

Neither recorder consumes RNG or perturbs a run (the :mod:`repro.obs`
invariant).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.rings import RingBuffer

#: The source's node id (kept literal: no repro.core import, traces are
#: plain data).
SOURCE_ID = 0

#: The round-domain stall buckets, in charging-precedence order.
STALL_BUCKETS = (
    "fragment_wait",
    "outage_stall",
    "backoff_stall",
    "search_wait",
)


# ----------------------------------------------------------------------
# feed clock: spans and exact attribution
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Span:
    """One delivery edge of one traced item.

    ``hop`` is ``"pull"`` (direct child pulling the source; ``sent_at``
    is the item's publish time) or ``"push"`` (an overlay forward;
    ``sent_at`` is when the parent forwarded).  ``recv_at`` is always
    the receiving node's delivery time.
    """

    trace_id: int
    node: int
    parent: int
    hop: str
    sent_at: float
    recv_at: float

    @property
    def duration(self) -> float:
        return self.recv_at - self.sent_at

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["kind"] = "span"
        return payload


def span_from_dict(payload: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` from its :meth:`~Span.to_dict` form."""
    return Span(**{k: v for k, v in payload.items() if k != "kind"})


@dataclasses.dataclass(frozen=True)
class FeedAttribution:
    """One consumer's decomposed staleness for one traced item."""

    node: int
    trace_id: int
    #: Publish → the direct child's pull tick.
    pull_wait: float
    #: Summed per-hop forwarding delays.
    transit: float
    #: Summed interior gaps between receipt and forward.
    hold: float
    hops: int

    @property
    def total(self) -> float:
        """Exactly the consumer's measured staleness for this item."""
        return self.pull_wait + self.transit + self.hold


class SpanRecorder:
    """Collects delivery spans; bounded like every flight recorder.

    Keyed lookups (``(trace_id, node)`` is unique — consumers dedupe
    deliveries) drive chain reconstruction; eviction from the ring drops
    the key too, so a capped recorder degrades to "the most recently
    recorded spans" without leaking.

    Spans are held in recording order, which is not always arrival
    order: with a ``hop_delay_model`` the dissemination engine records a
    wave's hops when the wave runs, ahead of hops that land earlier but
    are still on the heap.  An uncapped recorder holds the same span set
    either way; a capped one evicts by recording order, so which chains
    stay complete can differ from a run that recorded in arrival order.
    """

    def __init__(self, capacity: int = 1 << 16) -> None:
        self.spans: RingBuffer[Span] = RingBuffer(capacity)
        self._by_key: Dict[Tuple[int, int], Span] = {}

    def _add(self, span: Span) -> None:
        self._by_key[(span.trace_id, span.node)] = span
        evicted = self.spans.append(span)
        if evicted is not None:
            key = (evicted.trace_id, evicted.node)
            if self._by_key.get(key) is evicted:
                del self._by_key[key]

    def record_pull(self, node: int, items: Iterable, now: float) -> None:
        """A direct child pulled ``items`` fresh from the source."""
        for item in items:
            self._add(
                Span(
                    trace_id=item.seq,
                    node=node,
                    parent=SOURCE_ID,
                    hop="pull",
                    sent_at=item.published_at,
                    recv_at=now,
                )
            )

    def record_push(
        self,
        parent: int,
        child: int,
        items: Iterable,
        sent_at: float,
        now: float,
    ) -> None:
        """``parent`` forwarded ``items`` at ``sent_at``; delivered now."""
        for item in items:
            self._add(
                Span(
                    trace_id=item.seq,
                    node=child,
                    parent=parent,
                    hop="push",
                    sent_at=sent_at,
                    recv_at=now,
                )
            )

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def records(self) -> List[Dict[str, Any]]:
        """Held spans as JSON-ready dicts, in recording order (first
        recorded first; see the class docstring)."""
        return [span.to_dict() for span in self.spans]

    def chain(self, node: int, trace_id: int) -> Optional[List[Span]]:
        """The delivery path of ``trace_id`` to ``node``, source-first.

        ``None`` when the chain is incomplete (item never delivered
        there, or the recorder's ring evicted part of the path).
        """
        return chain_of(self._by_key, node, trace_id)

    def attribute(self, node: int, trace_id: int) -> Optional[FeedAttribution]:
        """Decompose ``node``'s staleness for ``trace_id`` (exact)."""
        return attribute_chain(self.chain(node, trace_id))

    def critical_paths(self, top: int = 5) -> List[Tuple[float, List[Span]]]:
        """The ``top`` slowest delivery chains, worst first."""
        return critical_paths(self._by_key.values(), top=top)


def chain_of(
    by_key: Dict[Tuple[int, int], Span], node: int, trace_id: int
) -> Optional[List[Span]]:
    """Walk ``(trace_id, node)`` spans back to the pull, source-first."""
    chain: List[Span] = []
    current = node
    for _ in range(len(by_key) + 1):
        span = by_key.get((trace_id, current))
        if span is None:
            return None
        chain.append(span)
        if span.hop == "pull":
            chain.reverse()
            return chain
        current = span.parent
    return None  # cycle guard (cannot happen on a well-formed trace)


def attribute_chain(chain: Optional[List[Span]]) -> Optional[FeedAttribution]:
    """The exact staleness decomposition of one delivery chain.

    ``pull_wait + transit + hold`` telescopes to
    ``chain[-1].recv_at - publish`` by construction.
    """
    if not chain:
        return None
    pull = chain[0]
    transit = 0.0
    hold = 0.0
    previous = pull
    for span in chain[1:]:
        transit += span.recv_at - span.sent_at
        hold += span.sent_at - previous.recv_at
        previous = span
    return FeedAttribution(
        node=chain[-1].node,
        trace_id=pull.trace_id,
        pull_wait=pull.recv_at - pull.sent_at,
        transit=transit,
        hold=hold,
        hops=len(chain) - 1,
    )


def index_spans(spans: Iterable[Span]) -> Dict[Tuple[int, int], Span]:
    """``{(trace_id, node): span}`` for chain walks over raw span lists
    (e.g. spans re-read from a JSONL trace)."""
    return {(span.trace_id, span.node): span for span in spans}


def merge_spans(span_lists: Iterable[Iterable[Span]]) -> List[Span]:
    """Merge spans from several recorders/traces into one ordered list.

    Duplicate ``(trace_id, node)`` deliveries keep the earliest receipt
    (re-deliveries can only be staler); output is ordered by
    ``(trace_id, recv_at)`` so chains read naturally.
    """
    merged: Dict[Tuple[int, int], Span] = {}
    for spans in span_lists:
        for span in spans:
            key = (span.trace_id, span.node)
            kept = merged.get(key)
            if kept is None or span.recv_at < kept.recv_at:
                merged[key] = span
    return sorted(merged.values(), key=lambda s: (s.trace_id, s.recv_at, s.node))


def critical_paths(
    spans: Iterable[Span], top: int = 5
) -> List[Tuple[float, List[Span]]]:
    """The slowest complete delivery chain of each trace, worst first.

    For every trace id, the chain ending at the consumer with the
    highest staleness (``recv_at - publish``) is reconstructed and the
    ``top`` worst across traces returned as ``(staleness, chain)``.
    """
    by_key = index_spans(spans)
    slowest: Dict[int, Span] = {}
    for span in by_key.values():
        worst = slowest.get(span.trace_id)
        if worst is None or span.recv_at > worst.recv_at:
            slowest[span.trace_id] = span
    ranked = []
    for trace_id, leaf in slowest.items():
        chain = chain_of(by_key, leaf.node, trace_id)
        if chain is None:
            continue
        ranked.append((leaf.recv_at - chain[0].sent_at, chain))
    ranked.sort(key=lambda pair: (-pair[0], pair[1][0].trace_id))
    return ranked[:top]


def describe_path(chain: List[Span]) -> str:
    """``0 →(pull 0.42) 7 →(push 0.61) 23`` — the chain as one line."""
    parts = [str(chain[0].parent)]
    for span in chain:
        parts.append(f"→({span.hop} {span.duration:.2f}) {span.node}")
    return " ".join(parts)


# ----------------------------------------------------------------------
# construction clock: round-domain attribution
# ----------------------------------------------------------------------


class _Age:
    """Per-consumer attribution state (one small mutable record)."""

    __slots__ = ("depth", "age") + STALL_BUCKETS

    def __init__(self) -> None:
        self.depth = 0  # delay when last rooted (0 if never rooted)
        self.age = 0  # independently maintained measured staleness
        self.fragment_wait = 0
        self.outage_stall = 0
        self.backoff_stall = 0
        self.search_wait = 0

    def reset_stalls(self) -> None:
        self.fragment_wait = 0
        self.outage_stall = 0
        self.backoff_stall = 0
        self.search_wait = 0


class StalenessAttributor:
    """Round-clock staleness attribution over a running construction.

    Drive it with :meth:`observe_round` once per round (the simulator
    does this from its measure phase when
    ``SimulationConfig.attribution`` is set).  Rooted consumers carry
    ``age = depth`` with empty stalls; every unrooted round increments
    the measured age *and* exactly one stall bucket, classified as:

    1. parented but unrooted → ``fragment_wait`` (a maintenance/churn
       detach gap upstream: the node waits for its fragment to re-merge);
    2. parentless during a source/oracle outage window → ``outage_stall``;
    3. parentless inside a backoff window → ``backoff_stall``;
    4. parentless otherwise → ``search_wait``.

    Consumers that churn offline are dropped (staleness is undefined
    offline) and restart from a never-rooted state when they rejoin,
    matching the protocol's own state reset.
    """

    def __init__(self, overlay, faults=None) -> None:
        self.overlay = overlay
        self.faults = faults
        self.rounds = 0
        self._ages: Dict[int, _Age] = {}

    def observe_round(self, now: int) -> None:
        """Charge this round's aging; call once at the end of a round."""
        self.rounds = now
        overlay = self.overlay
        root_column, delay_column = overlay.store.root, overlay.store.delay
        ages = self._ages
        faults = self.faults
        outage = faults is not None and (
            not faults.source_available() or not faults.oracle_available()
        )
        seen = set()
        for node in overlay.online_consumers:
            node_id = node.node_id
            seen.add(node_id)
            state = ages.get(node_id)
            if state is None:
                state = ages[node_id] = _Age()
            if root_column[node_id] == SOURCE_ID:
                state.depth = state.age = delay_column[node_id]
                state.reset_stalls()
                continue
            state.age += 1
            if node.parent is not None:
                state.fragment_wait += 1
            elif outage:
                state.outage_stall += 1
            elif node.source_retry_timeout > 0:
                state.backoff_stall += 1
            else:
                state.search_wait += 1
        for node_id in list(ages):
            if node_id not in seen:
                del ages[node_id]  # offline: undefined until rejoin

    # ------------------------------------------------------------------

    def breakdown(self, node_id: int) -> Optional[Dict[str, int]]:
        """``{component: rounds}`` plus measured ``staleness`` for one
        online consumer (``None`` if untracked/offline)."""
        state = self._ages.get(node_id)
        if state is None:
            return None
        return {
            "node": node_id,
            "staleness": state.age,
            "depth": state.depth,
            "fragment_wait": state.fragment_wait,
            "outage_stall": state.outage_stall,
            "backoff_stall": state.backoff_stall,
            "search_wait": state.search_wait,
        }

    def records(self) -> List[Dict[str, Any]]:
        """Per-consumer attribution rows (JSON-ready, ``kind="staleness"``),
        sorted worst-staleness-first then by node id."""
        rows = []
        for node_id in self._ages:
            row = self.breakdown(node_id)
            row["kind"] = "staleness"
            row["round"] = self.rounds
            rows.append(row)
        rows.sort(key=lambda r: (-r["staleness"], r["node"]))
        return rows

    def totals(self) -> Dict[str, int]:
        """Whole-overlay component totals (the report's headline split)."""
        totals = {"staleness": 0, "depth": 0}
        totals.update({bucket: 0 for bucket in STALL_BUCKETS})
        for state in self._ages.values():
            totals["staleness"] += state.age
            totals["depth"] += state.depth
            for bucket in STALL_BUCKETS:
                totals[bucket] += getattr(state, bucket)
        return totals

    def verify(self) -> None:
        """Check the sum identity for every tracked consumer; raises
        ``ValueError`` on the first violation (test/debug hook)."""
        for node_id, state in self._ages.items():
            parts = state.depth + sum(
                getattr(state, bucket) for bucket in STALL_BUCKETS
            )
            if parts != state.age:
                raise ValueError(
                    f"attribution identity broken at node {node_id}: "
                    f"components sum to {parts}, measured age {state.age}"
                )
