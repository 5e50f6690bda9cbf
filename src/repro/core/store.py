"""Dense columnar node-state storage: the N=100k memory layout.

The chain metadata of every node lives in one ``array``/``bytearray``
column per fact, indexed by a *dense* node id, so the scan-heavy
readers (the oracle roster, the convergence scan, the ``settled``
predicates) read arrays instead of chasing per-node objects.
:class:`~repro.core.node.Node` is the per-id view: it keeps the node
API (``spec``, ``parent``, ``children``, ``online``, the protocol
timers) as slots, the only copy of those facts.

Columns
-------
``root`` / ``delay``
    The §2.1.3 chain metadata ``Root(i)`` and ``DelayAt(i)``, owned and
    maintained by :class:`repro.core.index.ChainIndex` (uniform subtree
    shifts at the structural mutators).  The other two chain facts are
    derived from them: a node is *rooted* iff ``root[i] == SOURCE_ID``
    (the source is its own root at id 0), and its depth below its root
    is ``delay[i] - 1 + rooted``.
``unsettled``
    ``not settled(node)`` of every parented node, kept by the chain index
    for the bound maintenance rule (:meth:`~repro.core.index.ChainIndex.bind`).

Dense id allocation
-------------------
Ids are allocated contiguously and *reused*: :meth:`ColumnarState.release`
returns a permanently removed node's id to a min-heap free list, and the
next :meth:`allocate` pops the smallest free id — the column arrays stay
dense under arbitrary amounts of permanent churn.  Reuse is only legal
for nodes that are gone for good (``Overlay.remove_consumer`` requires
offline + fully disconnected), never for ordinary churn departures —
an offline consumer keeps its id so a rejoin can never alias a live
node (property-tested in ``tests/test_store.py``).

The whole structure is plain ``array``/``bytearray``/``list`` state, so
an overlay pickles (and therefore forks into
:mod:`repro.par` worker pools) without custom machinery.
"""

from __future__ import annotations

import heapq
from array import array
from typing import List, Optional

from repro.core.constraints import NodeSpec
from repro.core.errors import TopologyError
from repro.core.node import Node, NodeId


class ColumnarState:
    """The column arrays plus the dense id allocator.

    One instance backs one :class:`~repro.core.tree.Overlay`.  Columns
    grow append-only with the high-water id; released ids are recycled
    through a min-heap so the arrays stay dense.
    """

    def __init__(self) -> None:
        # Chain-metadata columns (§2.1.3), owned by ChainIndex.
        self.root = array("l")
        self.delay = array("l")
        self.unsettled = bytearray()
        #: One view object per live id (``None`` = released slot).
        self.nodes: List[Optional[Node]] = []
        #: Min-heap of released ids awaiting reuse.
        self.free: List[NodeId] = []

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """High-water id count (length of every column)."""
        return len(self.nodes)

    @property
    def live(self) -> int:
        """Number of allocated (non-released) ids."""
        return len(self.nodes) - len(self.free)

    def allocate(self, spec: NodeSpec, name: str = "") -> Node:
        """Allocate the smallest available dense id and return its view."""
        if self.free:
            node_id = heapq.heappop(self.free)
        else:
            node_id = len(self.nodes)
            self.nodes.append(None)
            self.root.append(node_id)
            self.delay.append(0)
            self.unsettled.append(0)
        node = Node(node_id, spec, name)
        self.nodes[node_id] = node
        return node

    def release(self, node_id: NodeId) -> None:
        """Return a permanently removed node's id to the free list.

        The caller (``Overlay.remove_consumer``) guarantees the node is
        offline and fully disconnected; releasing a live id would let a
        future allocation alias it.
        """
        node = self.nodes[node_id]
        if node is None:
            raise TopologyError(f"id {node_id} is already free")
        if node.online:
            raise TopologyError(f"cannot release online id {node_id}")
        if node.parent is not None or node.children:
            raise TopologyError(f"cannot release linked id {node_id}")
        self.nodes[node_id] = None
        heapq.heappush(self.free, node_id)

    # ------------------------------------------------------------------

    def verify(self, overlay) -> None:
        """Cross-check the view table and the free list: every member is
        the view at its id, and no freed id has one.  The chain columns
        are checked by ``ChainIndex.verify`` (via the reference walks)."""
        for node in overlay:
            i = node.node_id
            if self.nodes[i] is not node:
                raise TopologyError(f"store view table diverged at id {i}")
        for free_id in self.free:
            if self.nodes[free_id] is not None:
                raise TopologyError(f"freed id {free_id} still has a view")
