"""A fault-aware decorator over any oracle realization.

:class:`FaultGatedOracle` wraps the run's real oracle (omniscient, DHT
directory, or random-walk — anything with the
:class:`~repro.oracles.base.Oracle` surface) and degrades its answers
according to the active :class:`~repro.faults.state.FaultState`:

* **outage** — every query is refused (a miss, like Alg. 2's explicit
  "the oracle may return no partner" exception, but unconditionally);
* **stale view** — queries are answered from an ``s``-rounds-old
  snapshot of the overlay, filtered on the *recorded* delay/capacity
  values, so the returned peer may meanwhile be offline, full, or too
  deep — the enquirer finds out the hard way, at interaction time;
* **partition** — only candidates on the enquirer's own side of the
  view split are admissible (filtered by the inner oracle's own
  :meth:`~repro.oracles.base.Oracle.admits` semantics on live state).

When no fault condition is active every call delegates verbatim to the
inner oracle: same candidates, same RNG stream, same counters — which is
why installing the wrapper under a :class:`~repro.faults.plan.NullFaultPlan`
is bit-identical to not installing it.  Degraded answers draw from the
dedicated faults-oracle RNG stream instead of the inner oracle's, so a
fault window never desynchronizes the inner stream for the rounds after
healing beyond what the overlay divergence itself implies.

Hit/miss accounting happens on the *inner* oracle either way, so
``SimulationResult.oracle_misses`` keeps one coherent meaning.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.core.node import Node
from repro.core.tree import Overlay
from repro.faults.plan import FaultPlan
from repro.faults.state import FaultState

#: Inner-oracle name -> record filter mode (mirrors
#: :data:`repro.oracles.distributed.DIRECTORY_FILTERS` plus the rooted
#: ablation).  DHT oracles are resolved via their ``filter_mode``
#: attribute instead; unknown names degrade to the unfiltered mode.
_FILTER_BY_NAME = {
    "random": "random",
    "random-capacity": "capacity",
    "random-delay": "delay",
    "random-delay-capacity": "delay-capacity",
    "random-delay-rooted": "delay-rooted",
}

#: One snapshot row per consumer: (online, rooted, delay, free_fanout).
_Row = Tuple[bool, bool, int, int]


class FaultGatedOracle:
    """Decorates an oracle with outage / stale-view / partition faults."""

    def __init__(
        self,
        inner,
        overlay: Overlay,
        state: FaultState,
        rng: random.Random,
        plan: FaultPlan = FaultPlan(),
    ) -> None:
        self.inner = inner
        self.overlay = overlay
        self.state = state
        self.rng = rng
        #: The rounds a stale window of ``plan`` can read: the only
        #: rounds snapshotted, the last ``max_staleness() + 1`` kept.
        self.snapshot_rounds = plan.snapshot_rounds()
        self._snapshots: Deque[Tuple[int, Dict[int, _Row]]] = deque(
            maxlen=plan.max_staleness() + 1
        )
        #: Stale answers that pointed at a peer found dead at query time
        #: would be the enquirer's problem; this counts every answer
        #: served from a stale snapshot, healthy-looking or not.
        self.stale_answers = 0

    # --- delegated surface -------------------------------------------------

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def probe(self):
        return self.overlay.probe

    @property
    def hits(self) -> int:
        return self.inner.hits

    @property
    def misses(self) -> int:
        return self.inner.misses

    # ------------------------------------------------------------------

    def on_round(self, now: int) -> None:
        """Inner upkeep, plus a view snapshot when a stale window can
        read this round."""
        self.inner.on_round(now)
        if now in self.snapshot_rounds:
            self._snapshots.append(
                (
                    now,
                    {
                        node.node_id: (
                            node.online,
                            self.overlay.is_rooted(node),
                            self.overlay.delay_at(node),
                            node.free_fanout,
                        )
                        for node in self.overlay.consumers
                    },
                )
            )

    def sample(self, enquirer: Node) -> Optional[Node]:
        state = self.state
        if not state.oracle_available():
            return self._miss(enquirer)
        if state.stale_view_active() and self._snapshots:
            return self._sample_stale(enquirer)
        if state.partition_active():
            return self._sample_partitioned(enquirer)
        return self.inner.sample(enquirer)

    # ------------------------------------------------------------------

    def _miss(self, enquirer: Node) -> None:
        self.inner.misses += 1
        if self.probe.enabled:
            self.probe.oracle_miss(enquirer.node_id, self.name)
        return None

    def _answer(self, enquirer: Node, node: Node, response_size: int) -> Node:
        self.inner.hits += 1
        if self.probe.enabled:
            self.probe.oracle_query(
                enquirer.node_id, self.name, response_size, node.node_id
            )
        return node

    def _filter_mode(self) -> str:
        mode = getattr(self.inner, "filter_mode", None)
        if mode is not None:
            return mode
        return _FILTER_BY_NAME.get(self.inner.name, "random")

    def _row_passes(self, enquirer: Node, row: _Row) -> bool:
        """The inner oracle's filter, applied to *recorded* values."""
        online, rooted, delay, free_fanout = row
        if not online:
            return False  # it was offline even in the stale view
        mode = self._filter_mode()
        if mode in ("capacity", "delay-capacity") and free_fanout <= 0:
            return False
        if mode in ("delay", "delay-capacity", "delay-rooted"):
            if delay >= enquirer.latency:
                return False
        if mode == "delay-rooted" and not rooted:
            return False
        return True

    def _sample_stale(self, enquirer: Node) -> Optional[Node]:
        """Answer from the snapshot ``staleness`` rounds back (or oldest)."""
        target = self.state.now - self.state.staleness
        snapshot = self._snapshots[0][1]
        for recorded_at, rows in self._snapshots:
            if recorded_at <= target:
                snapshot = rows
            else:
                break
        candidates = [
            node_id
            for node_id, row in snapshot.items()
            if node_id != enquirer.node_id and self._row_passes(enquirer, row)
        ]
        if not candidates:
            return self._miss(enquirer)
        self.stale_answers += 1
        chosen = self.overlay.node(self.rng.choice(candidates))
        # Deliberately *no* liveness re-check: a stale directory hands
        # out dead or full peers, and the protocol pays for the contact.
        return self._answer(enquirer, chosen, len(candidates))

    def _sample_partitioned(self, enquirer: Node) -> Optional[Node]:
        """Only same-side candidates, by the inner filter on live state."""
        state = self.state
        admits = self.inner.admits
        candidates = [
            node
            for node in self.overlay.online_consumers
            if node is not enquirer
            and state.same_side(enquirer.name, node.name)
            and admits(enquirer, node)
        ]
        if not candidates:
            return self._miss(enquirer)
        return self._answer(enquirer, self.rng.choice(candidates), len(candidates))
