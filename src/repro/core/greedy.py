"""The Greedy LagOver construction algorithm (§3.1).

The greedy strategy places nodes in the dissemination tree strictly by
their delay constraints: nodes with tighter constraints go closer to the
source, and every consumer edge satisfies the invariant
``l_parent <= l_child``.  The ICDCS paper only summarizes the algorithm
(the details were deferred to the extended version); this module
reconstructs it faithfully from the three principal ideas of §3.1:

1. *Oracle- and peer-facilitated interactions.*  When a parentless node
   ``i`` interacts with a parented node ``j`` with ``l_j <= l_i``, it tries
   to become a child of ``j`` — directly, or by taking over the slot of one
   of ``j``'s children ``m`` (becoming ``m``'s parent) provided ``m``'s
   latency constraint survives the reconfiguration.  Failing that, ``i`` is
   referred to ``j``'s parent ``k``, "further upstream and more likely to
   fulfill i's latency constraint".
2. *Opportunistic cluster formation* among parentless peers ordered by
   their relative delay constraints; peers with the strictest constraints
   pull directly from the source (via the shared timeout branch).
3. *Reconfiguration upon encountering peers with stricter delay
   constraints*: a stricter node ``i`` meeting ``j <- k`` with
   ``l_i < l_j`` splices itself in between (``j <- i <- k``), pushing the
   laxer node one hop down — the move that keeps the invariant attainable
   mid-chain rather than only at the source.

The invariant makes the lazy maintenance rule of Alg. 1 provably
sufficient; see :mod:`repro.core.maintenance`.

Reconstruction note: like the Hybrid algorithm's explicit "i may discard
one of its current children", the greedy moves here may *shed* the
incoming node's laxest child to free the fanout unit a displacement or
splice requires.  Without this, a fragment root whose fanout is saturated
by opportunistically adopted children can never re-integrate anywhere (no
free slot to adopt a displaced node, no slot to splice above one) and
tight workloads such as Tf1 deadlock — shedding preserves the greedy
invariant and is the minimal mechanism that keeps the §3.1 description
live on its own evaluation workloads.
"""

from __future__ import annotations

from repro.core.interactions import (
    greedy_edge,
    try_attach,
    try_displace_child,
    try_insert_between,
)
from repro.core.maintenance import greedy_maintenance, greedy_settled
from repro.core.node import Node
from repro.core.protocol import ConstructionAlgorithm


class GreedyConstruction(ConstructionAlgorithm):
    """Greedy construction: strict latency ordering on every edge."""

    name = "greedy"

    edge_ok = staticmethod(greedy_edge)

    def _shed_allowed(self) -> bool:
        # See the module docstring's reconstruction note.
        return True

    def _interact(self, node: Node, partner: Node) -> None:
        if partner.is_parentless:
            self._form_group(node, partner)
        else:
            self._interact_with_parented(node, partner)

    # ------------------------------------------------------------------

    def _form_group(self, node: Node, partner: Node) -> None:
        """Opportunistic cluster formation between two parentless peers.

        The peer with the stricter latency constraint becomes the parent
        (it belongs closer to the source); on a tie the peer with the
        larger fanout does (it can serve more peers downstream without
        breaking the greedy invariant, since the constraints are equal).
        """
        if node.latency < partner.latency:
            parent, child = node, partner
        elif partner.latency < node.latency:
            parent, child = partner, node
        elif node.fanout >= partner.fanout:
            parent, child = node, partner
        else:
            parent, child = partner, node
        if not try_attach(self.overlay, child, parent, self.edge_ok):
            # Equal constraints admit either orientation; retry reversed.
            if parent.latency == child.latency:
                try_attach(self.overlay, parent, child, self.edge_ok)

    def _interact_with_parented(self, node: Node, partner: Node) -> None:
        """``i <-> j <- k``: join under the partner or splice in above it."""
        upstream = partner.parent
        assert upstream is not None
        if partner.latency <= node.latency:
            # i tries to become a child node of j...
            if try_attach(self.overlay, node, partner, self.edge_ok):
                return
            # ... possibly by becoming parent of one of j's children m
            # (shedding its own laxest child if its fanout is saturated —
            # without this a full fragment root could never re-integrate).
            if try_displace_child(
                self.overlay, node, partner, self.edge_ok, allow_shed=True
            ):
                return
        else:
            # Reconfiguration upon encountering a peer with a laxer
            # constraint: splice in above it (j <- i <- k).
            if try_insert_between(
                self.overlay, node, partner, self.edge_ok, allow_shed=True
            ):
                return
        # "Unless node i finds a suitable parent, it is referred to k."
        if not upstream.is_source:
            node.referral = upstream
            if self.probe.enabled:
                self.probe.referral(
                    node.node_id, upstream.node_id, "interaction"
                )
        elif self.overlay.delay_at(partner) < node.latency:
            # The chain tip is the source itself; queue a direct contact
            # only if joining this chain could ever satisfy the node.
            node.referral = self.overlay.source
            if self.probe.enabled:
                self.probe.referral(
                    node.node_id, self.overlay.source.node_id, "interaction"
                )

    # ------------------------------------------------------------------

    def maintain(self, node: Node) -> bool:
        return greedy_maintenance(self.overlay, node)

    settled = greedy_settled
