"""The Hybrid LagOver construction algorithm (Algorithm 2, §3.4).

Where the Greedy algorithm orders the tree strictly by latency
constraints, the Hybrid algorithm *jointly* optimizes latency and
capacity: it prefers nodes with larger fanout to sit upstream — so more
peers can be accommodated downstream — and lets latency constraints drive
placement only where they would otherwise be violated.  Any configuration
that meets all constraints is acceptable; no edge-ordering invariant is
maintained, which is why the maintenance rule must be the timeout-damped
one (:func:`repro.core.maintenance.hybrid_maintenance`).

This is a line-by-line transcription of Algorithm 2's interaction cases:

* ``i <-> j <-/`` (steps 16-22): if either node has unused fanout, the one
  with the larger fanout becomes the parent; on a fanout tie, the one with
  the stricter latency constraint does.
* ``i <-> j <- 0`` (steps 23-36): at a direct child of a pull-only source,
  latency decides — a stricter ``i`` takes over ``j``'s slot
  (``j <- i <- 0``); otherwise ``i`` joins under ``j`` (directly or by
  taking over a child slot), or is referred to the source.  For a
  push-capable source, fanout decides instead.
* ``i <-> j <- k`` (steps 37-42): fanout decides — ``f_i >= f_j`` splices
  ``i`` in above ``j`` (possibly discarding one of ``i``'s own children to
  make room), otherwise ``i`` joins under ``j``.  If nothing is possible
  because ``DelayAt(j) >= l_i``, ``i`` uses ``k`` as its next reference,
  moving closer to the source; otherwise it falls back to the Oracle.
"""

from __future__ import annotations

from repro.core.interactions import (
    any_edge,
    try_attach,
    try_displace_at_source,
    try_displace_child,
    try_insert_between,
)
from repro.core.maintenance import hybrid_maintenance, hybrid_settled
from repro.core.node import Node
from repro.core.protocol import ConstructionAlgorithm


class HybridConstruction(ConstructionAlgorithm):
    """Hybrid construction: joint latency/capacity optimization."""

    name = "hybrid"

    edge_ok = staticmethod(any_edge)

    def _shed_allowed(self) -> bool:
        return True

    # ------------------------------------------------------------------

    def _interact(self, node: Node, partner: Node) -> None:
        if partner.is_parentless:
            self._form_group(node, partner)
        elif partner.parent is self.overlay.source:
            self._interact_at_source_child(node, partner)
        else:
            self._interact_mid_chain(node, partner)

    # --- i <-> j <-/  (steps 16-22) ------------------------------------

    def _form_group(self, node: Node, partner: Node) -> None:
        """Group formation: larger fanout upstream; latency breaks ties."""
        if node.free_fanout <= 0 and partner.free_fanout <= 0:
            return
        if node.fanout > partner.fanout:
            parent, child = node, partner
        elif partner.fanout > node.fanout:
            parent, child = partner, node
        elif node.latency <= partner.latency:
            parent, child = node, partner
        else:
            parent, child = partner, node
        if not try_attach(self.overlay, child, parent, self.edge_ok):
            try_attach(self.overlay, parent, child, self.edge_ok)

    # --- i <-> j <- 0  (steps 23-36) ------------------------------------

    def _interact_at_source_child(self, node: Node, partner: Node) -> None:
        if self.config.pull_only_source:
            prefer_takeover = node.latency < partner.latency
        else:
            prefer_takeover = node.fanout > partner.fanout
        if prefer_takeover:
            # try j <- i <- 0: take over the direct-puller slot.
            if try_displace_at_source(
                self.overlay, node, partner, self.edge_ok, allow_shed=True
            ):
                return
        # try i <- j, or else m <- i <- j.  (Also the fallback when the
        # preferred takeover is not possible: every branch of Alg. 2 is a
        # "try X or else try Y" cascade, and without the fallback a node
        # that loses the takeover check can starve next to a usable slot.)
        if try_attach(self.overlay, node, partner, self.edge_ok):
            return
        if try_displace_child(
            self.overlay,
            node,
            partner,
            self.edge_ok,
            allow_shed=True,
            allow_orphan=True,
        ):
            return
        # "Refer i to 0 otherwise."
        node.referral = self.overlay.source
        if self.probe.enabled:
            self.probe.referral(
                node.node_id, self.overlay.source.node_id, "interaction"
            )

    @staticmethod
    def _prefers_upstream(node: Node, partner: Node) -> bool:
        """Whether ``node`` should sit above ``partner`` (steps 37+).

        Fanout decides; on a fanout tie the stricter latency constraint
        does — the same tie-break Alg. 2 prescribes for group formation
        ("If f_i = f_j, give preference to the node with stricter latency
        constraint to be the parent node").  Treating the tie as a
        takeover instead makes every interaction in an equal-fanout
        workload (Tf1) a splice and the overlay thrashes indefinitely.
        """
        if node.fanout != partner.fanout:
            return node.fanout > partner.fanout
        return node.latency < partner.latency

    # --- i <-> j <- k  (steps 37-42) ------------------------------------

    def _interact_mid_chain(self, node: Node, partner: Node) -> None:
        upstream = partner.parent
        assert upstream is not None
        if self._prefers_upstream(node, partner):
            # try j <- i <- k; i may discard one of its current children.
            if try_insert_between(
                self.overlay, node, partner, self.edge_ok, allow_shed=True
            ):
                return
        # try i <- j, or else m <- i <- j (m chosen so the reconfiguration
        # does not violate m's latency constraint).  Also the fallback when
        # the preferred splice fails: the high-fanout node may still fit
        # *under* the partner even when it cannot fit above it.
        if try_attach(self.overlay, node, partner, self.edge_ok):
            return
        if try_displace_child(
            self.overlay,
            node,
            partner,
            self.edge_ok,
            allow_shed=True,
            allow_orphan=True,
        ):
            return
        if self.overlay.delay_at(partner) >= node.latency:
            # Too deep for i's constraint: move closer to the source.
            node.referral = upstream
            if self.probe.enabled:
                self.probe.referral(
                    node.node_id, upstream.node_id, "interaction"
                )
        # Otherwise fall back to the Oracle on the next round.

    # ------------------------------------------------------------------

    def maintain(self, node: Node) -> bool:
        return hybrid_maintenance(
            self.overlay, node, self.config.maintenance_timeout
        )

    settled = hybrid_settled
