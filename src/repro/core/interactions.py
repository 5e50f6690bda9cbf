"""Checked reconfiguration moves shared by the construction algorithms.

The construction protocols of §3 are built from a small vocabulary of
bilateral moves, each written ``try ...`` in the paper's pseudo-code:

* ``try i <- j``            — :func:`try_attach` (*j* becomes *i*'s parent),
* ``try m <- i <- j``       — :func:`try_displace_child` (*i* takes over the
  slot of one of *j*'s children *m* and adopts *m*),
* ``try j <- i <- k``       — :func:`try_insert_between` (*i* slips in
  between *j* and its parent *k*),
* the source-slot displacement ``c <- i <- 0`` of the timeout branch —
  :func:`try_displace_at_source`.

Every function returns ``True`` and applies the move atomically, or returns
``False`` and leaves the overlay untouched.  A move is legal when

1. it is structurally sound (fanout available, no cycle, all parties
   online) — delegated to :class:`repro.core.tree.Overlay`;
2. the *directly repositioned* nodes still meet their (potential) latency
   constraints at their new positions;
3. every newly created consumer-to-consumer edge satisfies the algorithm's
   *edge policy* — the Greedy algorithm's invariant ``l_parent <= l_child``
   (§3.1), or "anything goes" for the Hybrid algorithm.

Deeper descendants whose delay shifts as a side effect are *not* checked:
the paper's protocols are deliberately lazy and leave such transient
violations to the maintenance rules (§3.2).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.node import Node
from repro.core.tree import Overlay

#: An edge policy decides whether a prospective consumer edge
#: ``child <- parent`` is admissible for the algorithm at hand.
EdgePolicy = Callable[[Node, Node], bool]


def any_edge(parent: Node, child: Node) -> bool:
    """Edge policy of the Hybrid algorithm: every edge is admissible."""
    return True


def greedy_edge(parent: Node, child: Node) -> bool:
    """Edge policy of the Greedy algorithm: ``l_parent <= l_child``.

    Edges out of the source are always admissible; among consumers the
    parent's latency constraint must not exceed the child's (§3.1: "The
    greedy algorithm ensures that if i <- j then l_j <= l_i").
    """
    return parent.is_source or parent.latency <= child.latency


def _fits_latency(overlay: Overlay, parent: Node, child: Node) -> bool:
    """Whether ``child``'s potential delay under ``parent`` is within ``l_child``.

    ``delay_at`` is an amortized O(1) chain-index read, so the legality
    checks below add constant overhead per attempted move.
    """
    return overlay.delay_at(parent) + 1 <= child.latency


def _same_fragment(overlay: Overlay, a: Node, b: Node) -> bool:
    return overlay.fragment_root(a) is overlay.fragment_root(b)


def _reject(overlay: Overlay, child: Node, parent: Node, reason: str) -> bool:
    """Emit an :class:`~repro.obs.events.AttachReject` and return False."""
    if overlay.probe.enabled:
        overlay.probe.attach_reject(child.node_id, parent.node_id, reason)
    return False


def try_attach(
    overlay: Overlay,
    child: Node,
    parent: Node,
    edge_ok: EdgePolicy = any_edge,
) -> bool:
    """``try child <- parent``: attach a parentless node (and its subtree).

    Succeeds when the parent has free fanout, the edge policy admits the
    edge, no cycle would form, and the child's potential delay at the new
    position is within its own latency constraint.
    """
    if not child.online or not parent.online:
        return _reject(overlay, child, parent, "offline")
    if child.parent is not None or child is parent or child.is_source:
        return _reject(overlay, child, parent, "not-parentless")
    if parent.free_fanout <= 0:
        return _reject(overlay, child, parent, "no-fanout")
    # ``child`` is parentless: ``parent`` is below it iff rooted at it.
    if overlay.fragment_root(parent) is child:
        return _reject(overlay, child, parent, "cycle")
    if not parent.is_source and not edge_ok(parent, child):
        return _reject(overlay, child, parent, "edge-policy")
    if not _fits_latency(overlay, parent, child):
        return _reject(overlay, child, parent, "latency")
    overlay.attach(child, parent)
    return True


def _displacement_candidates(
    overlay: Overlay,
    incoming: Node,
    parent: Node,
    edge_ok: EdgePolicy,
):
    """Children ``m`` of ``parent`` that ``incoming`` could take over.

    The reconfiguration replaces ``m <- parent`` with
    ``m <- incoming <- parent``; it is legal per child ``m`` when
    ``incoming`` fits at ``parent`` and ``m``'s latency constraint is not
    violated one hop deeper (§3.1: "provided m's latency constraint is not
    violated by the reconfiguration").
    """
    parent_delay = overlay.delay_at(parent)
    for m in parent.children:
        if m is incoming:
            continue
        if parent_delay + 2 > m.latency:
            continue
        if not edge_ok(incoming, m):
            continue
        yield m


def try_displace_child(
    overlay: Overlay,
    incoming: Node,
    parent: Node,
    edge_ok: EdgePolicy = any_edge,
    allow_shed: bool = False,
    allow_orphan: bool = False,
) -> bool:
    """``try m <- incoming <- parent``: take over one child slot of ``parent``.

    ``incoming`` (parentless) becomes a child of ``parent`` in the slot of
    some current child ``m``, and adopts ``m`` as its own child.  Requires
    one unit of free fanout at ``incoming`` to host ``m`` — with
    ``allow_shed``, ``incoming`` may first discard its laxest own child to
    free that unit.  Among the legal candidates the child with the laxest
    latency constraint is displaced — it has the most slack to spare.

    With ``allow_orphan`` (Hybrid only), when no child can be *adopted*,
    a child with a strictly laxer latency constraint than ``incoming``'s
    may be displaced without adoption, restarting construction as a
    fragment root.  This generalizes the timeout branch's source-slot
    rule (``c <- i <- 0`` for ``l_c > l_i``, where the paper likewise
    lets ``c`` go parentless if it cannot be re-homed) to mid-chain
    slots; the strict-laxness guard orders displacements by constraint
    and so rules out displacement cycles.
    """
    if not incoming.online or not parent.online:
        return False
    if incoming.parent is not None or incoming is parent or incoming.is_source:
        return False
    if _same_fragment(overlay, incoming, parent):
        return False
    if not parent.is_source and not edge_ok(parent, incoming):
        return False
    if not _fits_latency(overlay, parent, incoming):
        return False
    can_adopt = incoming.free_fanout > 0 or (allow_shed and incoming.children)
    if can_adopt:
        candidates = list(
            _displacement_candidates(overlay, incoming, parent, edge_ok)
        )
        if candidates:
            victim = max(candidates, key=lambda m: (m.latency, -m.fanout))
            if incoming.free_fanout <= 0:
                shed_one_child(overlay, incoming)
            overlay.splice(incoming, victim, reason="displace")
            return True
    if not allow_orphan:
        return False
    orphanable = [
        m
        for m in parent.children
        if m is not incoming and m.latency > incoming.latency
    ]
    if not orphanable:
        return False
    victim = max(orphanable, key=lambda m: (m.latency, -m.fanout))
    overlay.detach(victim, reason="displace-orphan")
    victim.rounds_without_parent = 0
    overlay.attach(incoming, parent)
    victim.referral = incoming if incoming.free_fanout > 0 else parent
    if overlay.probe.enabled:
        overlay.probe.referral(
            victim.node_id, victim.referral.node_id, "displacement"
        )
    return True


def shed_one_child(overlay: Overlay, node: Node) -> Optional[Node]:
    """Discard the child with the laxest latency constraint, freeing a slot.

    Used by the Hybrid moves annotated "i may need to discard one child
    node" (Alg. 2).  The shed child keeps its subtree and restarts
    construction as a fragment root.  Returns the shed child, or ``None``
    if the node has no children.
    """
    if not node.children:
        return None
    victim = max(node.children, key=lambda m: (m.latency, m.free_fanout))
    overlay.detach(victim, reason="shed")
    victim.rounds_without_parent = 0
    return victim


def try_insert_between(
    overlay: Overlay,
    incoming: Node,
    child: Node,
    edge_ok: EdgePolicy = any_edge,
    allow_shed: bool = False,
) -> bool:
    """``try child <- incoming <- parent``: splice ``incoming`` above ``child``.

    ``incoming`` takes ``child``'s slot under ``child``'s current parent and
    adopts ``child``.  Both repositioned nodes must meet their latency
    constraints at the new depths and both new edges must pass the edge
    policy.  With ``allow_shed`` (Hybrid), ``incoming`` may discard one of
    its own children to make room for ``child``.
    """
    parent = child.parent
    if parent is None:
        return False
    if not incoming.online or not child.online or not parent.online:
        return False
    if incoming.parent is not None or incoming.is_source:
        return False
    if incoming is child or incoming is parent:
        return False
    if _same_fragment(overlay, incoming, child):
        return False
    if not parent.is_source and not edge_ok(parent, incoming):
        return False
    if not edge_ok(incoming, child):
        return False
    parent_delay = overlay.delay_at(parent)
    if parent_delay + 1 > incoming.latency:
        return False
    if parent_delay + 2 > child.latency:
        return False
    if incoming.free_fanout <= 0:
        if not allow_shed:
            return False
        if not incoming.children:
            return False
        # Shedding only helps if it actually frees a slot for `child`.
        shed_one_child(overlay, incoming)
    overlay.splice(incoming, child, reason="splice")
    return True


def try_displace_at_source(
    overlay: Overlay,
    incoming: Node,
    victim: Node,
    edge_ok: EdgePolicy = any_edge,
    allow_shed: bool = False,
) -> bool:
    """``try victim <- incoming <- 0``: take over a direct-puller slot.

    Used by the timeout branch of both algorithms ("else if exists c <- 0
    s.t. l_c > l_i then c <- i <- 0") and by the Hybrid interaction with a
    source child.  ``incoming`` replaces ``victim`` as a direct child of
    the source; the move then *tries* to re-home ``victim`` as a child of
    ``incoming`` — but unlike :func:`try_insert_between` the displacement
    stands even if ``victim`` cannot be adopted (it then restarts
    construction as a fragment root, exactly the situation §3.2's
    maintenance discussion anticipates).
    """
    source = overlay.source
    if victim.parent is not source:
        return False
    if not incoming.online or not victim.online:
        return False
    if incoming.parent is not None or incoming is victim or incoming.is_source:
        return False
    if _same_fragment(overlay, incoming, victim):
        return False
    overlay.detach(victim, reason="displace")
    victim.rounds_without_parent = 0
    overlay.attach(incoming, source)
    adopted = False
    if edge_ok(incoming, victim) and _fits_latency(overlay, incoming, victim):
        if incoming.free_fanout <= 0 and allow_shed:
            shed_one_child(overlay, incoming)
        if incoming.free_fanout > 0:
            overlay.attach(victim, incoming)
            adopted = True
    if not adopted:
        victim.referral = incoming
        if overlay.probe.enabled:
            overlay.probe.referral(
                victim.node_id, incoming.node_id, "displacement"
            )
    return True
