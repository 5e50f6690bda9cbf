"""Overlay node state.

Table 1 of the paper, mapped to code:

==================  ============================================================
Paper notation      Here
==================  ============================================================
``i_f^l``           a :class:`Node` whose :attr:`Node.spec` is ``NodeSpec(l, f)``
``f_i``             ``node.spec.fanout``
``l_i``             ``node.spec.latency``
``Node 0``          the source, ``node.is_source`` / ``Overlay.source``
``j <- i``          ``j.parent is i`` (*i* is the parent of *j*)
``Parent(i)``       ``i.parent``
``Children(i)``     ``i.children``
``n <-/``           ``n.parent is None`` (parentless)
``Root(i)``         ``Overlay.fragment_root(i)``
``DelayAt(i)``      ``Overlay.delay_at(i)``
==================  ============================================================

A :class:`Node` stores only *local* state: its constraints, its parent and
children links, whether it is online, and the per-node timers the
construction and maintenance protocols use (timeout counter, maintenance
violation timer, the referral received during the last interaction).  All
chain-level quantities (``Root``, ``DelayAt``) belong to
:class:`repro.core.tree.Overlay` — this mirrors the paper's assumption
(§2.1.3) that chain metadata is piggy-backed along the chain rather than
owned by the node.  The overlay keeps them in the chain columns of its
:class:`~repro.core.store.ColumnarState`, maintained incrementally by the
:class:`~repro.core.index.ChainIndex` (the piggy-backing made fast); the
defining parent-chain walk survives as the ``Overlay.walk_*`` reference
implementations.

A node is the per-id *view* of that store: the store hands out exactly
one per allocated id, so identity is by object and every ``is``
comparison in the construction code keeps working.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.constraints import NodeSpec

#: NodeId type alias; the source is always id 0.
NodeId = int

SOURCE_ID: NodeId = 0


class Node:
    """One participant of the overlay (the source or a consumer).

    Created only by :meth:`ColumnarState.allocate
    <repro.core.store.ColumnarState.allocate>`.  Identity is by object:
    two nodes are the same node only if they are the same Python object,
    and ``node_id`` is unique within one
    :class:`~repro.core.tree.Overlay`.  All node state is plain slots
    (the fastest attribute read CPython has), and the slots are its only
    copy: ``parent`` and ``online`` are assigned by the checked
    :class:`~repro.core.tree.Overlay` mutators alone, and the per-node
    protocol timers are node-local scratch.  The store's columns hold
    only the chain metadata, which belongs to the overlay.
    """

    __slots__ = (
        "node_id",
        "is_source",
        "spec",
        "name",
        "latency",
        "fanout",
        "children",
        "parent",
        "online",
        "rounds_without_parent",
        "violation_rounds",
        "referral",
        "busy_until",
        "source_failures",
        "source_retry_timeout",
    )

    def __init__(self, node_id: NodeId, spec: NodeSpec, name: str) -> None:
        self.node_id = node_id
        #: Whether this node is the feed source (node 0).
        self.is_source = node_id == SOURCE_ID
        self.spec = spec
        self.name = name if name else str(node_id)
        #: ``l_i`` and ``f_i``, copied out of :attr:`spec` for the hot reads.
        self.latency = spec.latency
        self.fanout = spec.fanout
        self.children: List["Node"] = []
        self.parent: Optional["Node"] = None
        self.online = True
        #: Rounds spent parentless since the last timeout reset; drives the
        #: "contact the source on Timeout" branch of both algorithms.
        self.rounds_without_parent = 0
        #: Consecutive rounds the node has observed its latency constraint
        #: violated while rooted at the source (hybrid maintenance timer).
        self.violation_rounds = 0
        #: Partner referred during the last interaction ("use k as next
        #: reference"); consumed by the next construction step.
        self.referral: Optional["Node"] = None
        #: First round at which the node may act again (asynchronous mode);
        #: 0 means "free now".
        self.busy_until = 0
        #: Consecutive failed direct source contacts (rejections/outages);
        #: drives the exponential backoff when ``ProtocolConfig.source_backoff``
        #: is enabled.  Reset on any successful attach.
        self.source_failures = 0
        #: Backed-off replacement for ``ProtocolConfig.timeout`` while source
        #: contacts keep failing; 0 means "no backoff, use the config timeout".
        self.source_retry_timeout = 0

    # --- read-only convenience --------------------------------------------

    @property
    def free_fanout(self) -> int:
        """Unused fanout: declared fanout minus current number of children."""
        return self.fanout - len(self.children)

    @property
    def has_parent(self) -> bool:
        """Whether the node currently has a parent (``i <- j`` for some j)."""
        return self.parent is not None

    @property
    def is_parentless(self) -> bool:
        """The paper's ``i <-/`` state (never true for the source)."""
        return self.node_id != SOURCE_ID and self.parent is None

    def reset_protocol_state(self) -> None:
        """Clear all protocol timers and referrals (used on churn rejoin)."""
        self.rounds_without_parent = 0
        self.violation_rounds = 0
        self.referral = None
        self.busy_until = 0
        self.source_failures = 0
        self.source_retry_timeout = 0

    def label(self) -> str:
        """Paper notation, e.g. ``a_2^1`` (source renders as ``0_f``)."""
        if self.is_source:
            return f"0_{self.fanout}"
        return self.spec.label(self.name)

    # --- pickling (slots classes need explicit state) ---------------------

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)

    def __reduce__(self):
        # Bypass __init__ (which would re-zero timers and empty the
        # child list); restore the exact slot state instead.
        return (_reconstruct_node, (), self.__getstate__())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "online" if self.online else "offline"
        parent = self.parent.name if self.parent is not None else "-"
        return f"<Node {self.label()} parent={parent} {state}>"


def _reconstruct_node() -> Node:
    """Pickle helper: an empty shell ``__setstate__`` then fills."""
    return object.__new__(Node)
