"""Incrementally maintained chain-metadata index.

The chain metadata of §2.1.3 — ``Root(i)``, the depth below that root and
hence ``DelayAt(i)`` — is a pure function of the parent links, and every
layer of this reproduction reads it constantly: the oracles filter each
sampled candidate by delay, :func:`repro.core.convergence.measure` scores
every node every round, and the maintenance rules consult it on every
parented node.  Re-walking the parent chain on every read makes a round
O(N·D); this module replaces walk-on-read with an **index** that is kept
exact *incrementally* at the only four structural mutation points of
:class:`~repro.core.tree.Overlay`:

``attach(child, parent)``
    ``child`` was a fragment root, so its subtree's cached depths are
    relative to ``child``; re-root the subtree under ``parent``'s root and
    shift every depth by ``depth(parent) + 1``.
``detach(child)``
    ``child`` becomes a fragment root; subtract its old depth across its
    subtree and re-root the subtree at ``child``.
``go_offline(node)``
    A departure is one detach of ``node`` plus one detach per orphaned
    child (each keeps its subtree and becomes its own root).
``go_online(node)``
    A rejoining node is fully disconnected, so its entry is already the
    fragment-root identity ``(itself, 0)``; only the version advances.

The same four points keep the **delay roster** current: a list of
Python ints used as bitsets over node ids, bit ``i`` of ``roster[d]``
set iff consumer ``i`` is online with ``DelayAt(i) == d``.  It is the
gradient ordering of the overlay (nodes sorted by distance from the
source) used as an index: the omniscient oracles' ``DelayAt(j) < l_i``
filter is the OR of a prefix of buckets, where it used to be a scan of
the whole online population per query.  The roster is built by its
first reader (:meth:`ChainIndex.delay_roster`), so runs whose oracle
never asks — the sharded, DHT and random-walk realizations — pay one
``is not None`` test per shifted node and nothing else.

They also feed the **watch sets** (:meth:`ChainIndex.watch`): every
consumer that wants to know *which* nodes a mutation moved — the health
recorder folding them into its aggregates, the continuous engine waking
dormant nodes whose rule is no longer settled — asks for a set of its
own, and every hook (``rebuild()`` included) adds the ids it visits to
each of them.  The index never interprets them: which touched node has
something to do is protocol knowledge
(:meth:`~repro.core.protocol.ConstructionAlgorithm.settled`), kept out
of here.

Reads are amortized O(1); a mutation pays at most the size of the moved
subtree — the same asymptotic cost the mutation itself already pays for
re-linking and event emission.

Invariants (cross-checked by :meth:`ChainIndex.verify`, which
:meth:`Overlay.check_integrity` runs against the reference walk kept
in-tree as ``Overlay.walk_*``):

* for every node, ``entry.root`` is the parentless top of its chain and
  ``entry.depth`` its hop count to that root;
* a parentless node (including every offline node and the source) is its
  own root at depth 0;
* once built, the delay roster equals a from-scratch scan of the entries
  and liveness flags;
* :attr:`ChainIndex.version` strictly increases on every structural or
  liveness mutation, so any value derived from chain metadata can be
  cached per version (see ``repro.core.convergence``'s shared forest
  scan).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.core.errors import TopologyError
from repro.core.node import SOURCE_ID, Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import ColumnarState
    from repro.core.tree import Overlay


def _set_bit(roster: List[int], node_id: int, delay: int) -> None:
    """Set bit ``node_id`` of ``roster[delay]``, growing the list to it."""
    if delay >= len(roster):
        roster.extend([0] * (delay + 1 - len(roster)))
    roster[delay] |= 1 << node_id


def _move_bit(roster: List[int], node_id: int, old: int, new: int) -> None:
    """Move bit ``node_id`` from ``roster[old]`` to ``roster[new]``."""
    roster[old] ^= 1 << node_id
    _set_bit(roster, node_id, new)


def kth_set_bit(mask: int, k: int) -> int:
    """Position of the ``k``-th lowest set bit of ``mask`` (``k`` from 0).

    Requires ``0 <= k < mask.bit_count()``.  Halves the window each
    step and keeps only the half that holds the answer, so the ints
    shrink as it goes: O(bits) word operations in all, against one
    Python-level step per candidate for a list.
    """
    base = 0
    width = mask.bit_length()
    while width > 1:
        half = width >> 1
        low = mask & ((1 << half) - 1)
        below = low.bit_count()
        if k < below:
            mask = low
            width = half
        else:
            k -= below
            mask >>= half
            base += half
            width -= half
    return base


class _Entry:
    """Cached chain metadata of one node.

    ``root`` and ``depth`` are the primary facts; ``rooted`` and ``delay``
    are derived but stored too, because the oracle filters read them
    millions of times per run — one dict lookup plus one slot load beats
    re-deriving ``root.is_source`` per read.  All four are maintained in
    the same subtree shift, so they can never disagree (and
    :meth:`ChainIndex.verify` checks they do not).
    """

    __slots__ = ("root", "depth", "rooted", "delay")

    def __init__(self, root: Node, depth: int) -> None:
        self.root = root
        self.depth = depth
        self.rooted = root.is_source
        self.delay = depth if self.rooted else depth + 1


class ChainIndex:
    """Per-node ``(fragment_root, depth)`` cache with subtree invalidation.

    Owned by one :class:`~repro.core.tree.Overlay`; the overlay calls the
    ``on_*`` hooks from its checked mutators *after* the parent/child
    links are updated.  ``DelayAt`` is derived on read: ``depth`` for
    nodes whose root is the source, ``depth + 1`` (the potential delay of
    §2.1.3) otherwise — the source itself is its own root at depth 0.

    Besides the per-node entries the index serves the *delay roster*
    (:meth:`delay_roster`): online consumers bucketed by ``DelayAt`` as
    bitsets over node ids, built on first read and from then on moved
    bit by bit in the same subtree shifts that update the entries.
    """

    def __init__(self, overlay: "Overlay") -> None:
        self._overlay = overlay
        #: Delay-bucketed bitsets of the online consumers, or ``None``
        #: until :meth:`delay_roster` is first read.
        self._roster: Optional[List[int]] = None
        #: node_id -> entry.  Public for the overlay's inlined hot-path
        #: reads; treat as read-only outside this class.
        self.entries: Dict[int, _Entry] = {}
        #: Monotonic mutation counter; bumped by every hook.  Derived
        #: per-round quantities are cached against it.
        self.version = 0
        #: Watch sets handed out by :meth:`watch`, one per consumer.
        self._watchers: List[Set[int]] = []
        self.rebuild()

    # ------------------------------------------------------------------
    # construction / registration
    # ------------------------------------------------------------------

    def watch(self) -> Set[int]:
        """A new *watch set*: from now on every node id whose entry or
        liveness changes is added to it.

        Each consumer (:class:`repro.obs.health.HealthRecorder`, the
        continuous engine's wake-on-violation) asks for its own set and
        drains and clears it at its own pace; the ids are the ones the
        index traversal visits anyway, so watching does not change the
        asymptotics, and with no watcher a mutation pays one test per
        shifted node.
        """
        watcher: Set[int] = set()
        self._watchers.append(watcher)
        return watcher

    def _notify(self, node_ids) -> None:
        """Add ``node_ids`` to every watch set."""
        for watcher in self._watchers:
            watcher.update(node_ids)

    def rebuild(self) -> None:
        """Recompute every entry from the reference walk (O(N·D)).

        Used at construction time and available as a recovery hatch; in
        normal operation the incremental hooks keep the index exact.
        Whatever bypassed the hooks may have moved any node, so every
        id, dropped or kept, goes to the watch sets.
        """
        self._notify(self.entries)
        self.entries = {}
        for node in self._overlay:
            self.entries[node.node_id] = self._walked_entry(node)
        self._notify(self.entries)
        if self._roster is not None:
            self._roster = self._scan_roster()
        self.version += 1

    def _walked_entry(self, node: Node):
        """The entry of ``node`` as the reference walk derives it."""
        return _Entry(
            self._overlay.walk_fragment_root(node),
            self._overlay.walk_depth(node),
        )

    def register(self, node: Node) -> None:
        """Index a newly added node (always parentless: its own root)."""
        self.entries[node.node_id] = _Entry(node, 0)
        self._sync_roster(node)
        self._notify((node.node_id,))
        self.version += 1

    def unregister(self, node: Node) -> None:
        """Drop a permanently removed node from the index
        (:meth:`~repro.core.tree.Overlay.remove_consumer`)."""
        del self.entries[node.node_id]
        self._notify((node.node_id,))
        self.version += 1

    # ------------------------------------------------------------------
    # mutation hooks (links already updated when these run)
    # ------------------------------------------------------------------

    def on_attach(self, child: Node, parent: Node) -> None:
        """``child`` (a fragment root) was attached under ``parent``."""
        anchor = self.entries[parent.node_id]
        self._shift_subtree(child, anchor.root, anchor.depth + 1)
        self.version += 1

    def on_detach(self, child: Node) -> None:
        """``child`` was severed from its parent and heads its own fragment."""
        entry = self.entries[child.node_id]
        self._shift_subtree(child, child, -entry.depth)
        self.version += 1

    def touch(self, node: Node) -> None:
        """Record a liveness-only mutation of ``node``
        (``go_offline``/``go_online``).

        The departing/rejoining node's own entry is already the
        fragment-root identity — every structural consequence went
        through :meth:`on_detach` — but liveness changes what the
        per-round quality scan and the delay roster see, so the roster
        bit follows ``node.online`` and the version advances.
        """
        self._sync_roster(node)
        self._notify((node.node_id,))
        self.version += 1

    def mark(self, node: Node) -> None:
        """Note a non-chain change that health aggregates care about
        (fanout-slack shifts on a parent)."""
        self._notify((node.node_id,))

    def _shift_subtree(self, top: Node, root: Node, delta: int) -> None:
        """Re-root ``top``'s subtree at ``root``, shifting depths by ``delta``.

        ``top``'s cached depths are relative to its previous root, so one
        uniform shift re-anchors the whole subtree — this is the
        "mutations pay at most the size of the moved subtree" cost.
        """
        entries = self.entries
        shifted: Optional[List[int]] = [] if self._watchers else None
        roster = self._roster
        limit = len(entries)
        seen = 0
        rooted = root.is_source
        bias = 0 if rooted else 1
        stack = [top]
        while stack:
            node = stack.pop()
            seen += 1
            if seen > limit:
                raise TopologyError(f"cycle detected under {top!r}")
            entry = entries[node.node_id]
            entry.root = root
            entry.rooted = rooted
            entry.depth += delta
            if roster is not None:
                _move_bit(roster, node.node_id, entry.delay, entry.depth + bias)
            entry.delay = entry.depth + bias
            if shifted is not None:
                shifted.append(node.node_id)
            stack.extend(node.children)
        if shifted:
            self._notify(shifted)

    # ------------------------------------------------------------------
    # delay roster
    # ------------------------------------------------------------------

    def delay_roster(self) -> List[int]:
        """Online consumers bucketed by ``DelayAt``, as bitsets over ids.

        Bit ``i`` of ``roster[d]`` is set iff consumer ``i`` is online
        with ``DelayAt(i) == d`` (the source is in no bucket; buckets
        past the deepest delay ever seen are absent, not zero-padded to
        any fixed length).  The first call scans the population once;
        afterwards the hooks above keep the list current and this
        returns it as is — callers read it and never write.
        """
        if self._roster is None:
            self._roster = self._scan_roster()
        return self._roster

    def _scan_roster(self) -> List[int]:
        """The roster from scratch, off the entries and liveness flags."""
        roster: List[int] = []
        for node in self._overlay:
            if node.online and not node.is_source:
                _set_bit(roster, node.node_id, self.delay_of(node))
        return roster

    def _sync_roster(self, node: Node) -> None:
        """Make the roster bit of ``node`` agree with ``node.online``.

        For registration and churn transitions, where the node's delay
        stands still and only its membership changes.
        """
        roster = self._roster
        if roster is None:
            return
        delay = self.delay_of(node)
        if node.online:
            _set_bit(roster, node.node_id, delay)
        else:
            roster[delay] &= ~(1 << node.node_id)

    # ------------------------------------------------------------------
    # O(1) reads
    # ------------------------------------------------------------------

    def root_of(self, node: Node) -> Node:
        """``Root(i)`` — raises ``KeyError`` for nodes foreign to the overlay."""
        return self.entries[node.node_id].root

    def depth_of(self, node: Node) -> int:
        """Hops from the node to its fragment root."""
        return self.entries[node.node_id].depth

    def is_rooted(self, node: Node) -> bool:
        """Whether the node's chain tops out at the source."""
        return self.entries[node.node_id].rooted

    def delay_of(self, node: Node) -> int:
        """``DelayAt(i)``: actual delay if rooted, potential otherwise."""
        return self.entries[node.node_id].delay

    def meets_latency(self, node: Node) -> bool:
        """Rooted at the source within the node's latency constraint."""
        if node.is_source:
            return True
        entry = self.entries[node.node_id]
        return entry.rooted and entry.depth <= node.latency

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Cross-check every entry against the reference walk; raises
        :class:`TopologyError` on the first divergence.

        This is the index's safety net: the naive walking implementation
        survives in-tree (``Overlay.walk_fragment_root`` /
        ``Overlay.walk_depth``) precisely so the incremental bookkeeping
        can be audited against ground truth at any time.
        """
        overlay = self._overlay
        for node in overlay:
            entry = self.entries.get(node.node_id)
            if entry is None:
                raise TopologyError(f"{node!r} missing from the chain index")
            walk_root = overlay.walk_fragment_root(node)
            walk_depth = overlay.walk_depth(node)
            if entry.root is not walk_root or entry.depth != walk_depth:
                raise TopologyError(
                    f"chain index diverged at {node!r}: cached "
                    f"(root={entry.root!r}, depth={entry.depth}) vs walked "
                    f"(root={walk_root!r}, depth={walk_depth})"
                )
            if entry.rooted != walk_root.is_source or entry.delay != (
                entry.depth if entry.rooted else entry.depth + 1
            ):
                raise TopologyError(
                    f"chain index diverged at {node!r}: stored derived "
                    f"fields (rooted={entry.rooted}, delay={entry.delay}) "
                    f"disagree with (root={walk_root!r}, depth={walk_depth})"
                )
        if len(self.entries) != len(overlay):
            raise TopologyError("chain index tracks nodes not in the overlay")
        if self._roster is not None and any(
            kept != scanned
            for kept, scanned in zip_longest(
                self._roster, self._scan_roster(), fillvalue=0
            )
        ):
            raise TopologyError(
                "delay roster diverged from the entries and liveness flags"
            )


class _ColumnEntry:
    """Entry facade over the chain columns of one node.

    Same read/write surface as :class:`_Entry` (``root`` / ``depth`` /
    ``rooted`` / ``delay``, all assignable — the corruption tests poke
    them directly), but every access lands in the
    :class:`~repro.core.store.ColumnarState` columns.  The hot
    incremental maintenance (:meth:`ColumnarChainIndex._shift_subtree`)
    bypasses the facade and writes the columns directly.
    """

    __slots__ = ("_store", "_id")

    def __init__(self, store: "ColumnarState", node_id: int) -> None:
        self._store = store
        self._id = node_id

    @property
    def root(self) -> Node:
        return self._store.nodes[self._store.root[self._id]]

    @root.setter
    def root(self, value: Node) -> None:
        self._store.root[self._id] = value.node_id

    @property
    def depth(self) -> int:
        return self._store.depth[self._id]

    @depth.setter
    def depth(self, value: int) -> None:
        self._store.depth[self._id] = value

    @property
    def rooted(self) -> bool:
        return bool(self._store.rooted[self._id])

    @rooted.setter
    def rooted(self, value: bool) -> None:
        self._store.rooted[self._id] = 1 if value else 0

    @property
    def delay(self) -> int:
        return self._store.delay[self._id]

    @delay.setter
    def delay(self, value: int) -> None:
        self._store.delay[self._id] = value


class ColumnarChainIndex(ChainIndex):
    """:class:`ChainIndex` over the chain *columns* of a columnar overlay.

    Identical invalidation algorithm (the four mutation hooks, uniform
    subtree shifts), but the per-node facts live in the
    ``root``/``depth``/``rooted``/``delay`` columns of the overlay's
    :class:`~repro.core.store.ColumnarState` rather than in per-node
    ``_Entry`` objects.  ``entries`` remains a real dict — of
    write-through :class:`_ColumnEntry` facades — so every existing
    reader (the overlay's inlined hot reads, the health recorder, the
    staleness attributor, the corruption tests) works unchanged on
    either backend.
    """

    def __init__(self, overlay: "Overlay", store: "ColumnarState") -> None:
        self._store = store
        super().__init__(overlay)

    # ------------------------------------------------------------------

    def _enter(self, node_id: int) -> None:
        """(Re-)expose one id through the entries facade."""
        if node_id not in self.entries:
            self.entries[node_id] = _ColumnEntry(self._store, node_id)

    def _walked_entry(self, node: Node) -> _ColumnEntry:
        """Write the walked chain facts of ``node`` into its columns."""
        store = self._store
        overlay = self._overlay
        i = node.node_id
        root = overlay.walk_fragment_root(node)
        depth = overlay.walk_depth(node)
        rooted = root.is_source
        store.root[i] = root.node_id
        store.depth[i] = depth
        store.rooted[i] = 1 if rooted else 0
        store.delay[i] = depth if rooted else depth + 1
        return _ColumnEntry(store, i)

    def register(self, node: Node) -> None:
        """Index a newly added node: its own root at depth 0, in columns."""
        store = self._store
        i = node.node_id
        rooted = i == SOURCE_ID
        store.root[i] = i
        store.depth[i] = 0
        store.rooted[i] = 1 if rooted else 0
        store.delay[i] = 0 if rooted else 1
        self._enter(i)
        self._sync_roster(node)
        self._notify((i,))
        self.version += 1

    # ------------------------------------------------------------------

    def on_attach(self, child: Node, parent: Node) -> None:
        store = self._store
        p = parent.node_id
        self._shift_subtree(child, store.nodes[store.root[p]], store.depth[p] + 1)
        self.version += 1

    def on_detach(self, child: Node) -> None:
        self._shift_subtree(child, child, -self._store.depth[child.node_id])
        self.version += 1

    def _shift_subtree(self, top: Node, root: Node, delta: int) -> None:
        """Uniform subtree shift, written straight into the columns."""
        store = self._store
        root_col = store.root
        depth_col = store.depth
        rooted_col = store.rooted
        delay_col = store.delay
        shifted: Optional[List[int]] = [] if self._watchers else None
        roster = self._roster
        limit = len(self.entries)
        seen = 0
        root_id = root.node_id
        rooted = 1 if root_id == SOURCE_ID else 0
        bias = 0 if rooted else 1
        stack = [top]
        while stack:
            node = stack.pop()
            seen += 1
            if seen > limit:
                raise TopologyError(f"cycle detected under {top!r}")
            i = node.node_id
            root_col[i] = root_id
            rooted_col[i] = rooted
            depth = depth_col[i] + delta
            depth_col[i] = depth
            if roster is not None:
                _move_bit(roster, i, delay_col[i], depth + bias)
            delay_col[i] = depth + bias
            if shifted is not None:
                shifted.append(i)
            stack.extend(node.children)
        if shifted:
            self._notify(shifted)
