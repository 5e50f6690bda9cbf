"""Incrementally maintained chain-metadata index.

The chain metadata of §2.1.3 — ``Root(i)`` and ``DelayAt(i)`` — is a
pure function of the parent links, and every
layer of this reproduction reads it constantly: the oracles filter each
sampled candidate by delay, :func:`repro.core.convergence.measure` scores
every node every round, and the maintenance rules consult it on every
parented node.  Re-walking the parent chain on every read makes a round
O(N·D); this module replaces walk-on-read with an **index** that is kept
exact *incrementally* by the structural mutators of
:class:`~repro.core.tree.Overlay`, through two hooks:

``on_attach(child, parent)``
    ``child`` was a fragment root; its subtree now hangs below
    ``parent``, so it takes ``parent``'s root and ``child`` sits one hop
    below it, at ``DelayAt(parent) + 1``.  ``attach`` calls it once; ``splice`` (a node
    slipped in above a parented child) calls it for the incoming node
    and then for the child, whose subtree moves once, one hop deeper.
``on_detach(child)``
    ``child`` becomes a fragment root, at potential delay 1.  ``detach`` calls it
    once; ``go_offline`` detaches the leaver *after* taking its children
    off it, so the leaver moves alone and each orphan subtree moves once.
    A rejoining node (``go_online``) is already its own fragment root
    and moves nothing.

Both hooks are one :meth:`ChainIndex._shift_subtree`: the subtree below
the moved node, walked level by level.  The piggy-backed metadata of
§2.1.3 is the same for every node of one level — one root and one
delay, offsets from the moved node — so each level costs two column
writes per node and a handful of per-level constants.

The same shift keeps the **delay roster** current: a list of Python
ints used as bitsets over node ids, bit ``i`` of ``roster[d]`` set iff
consumer ``i`` is online with ``DelayAt(i) == d``.  It is the gradient
ordering of the overlay (nodes sorted by distance from the source) used
as an index: the omniscient oracles' ``DelayAt(j) < l_i`` filter is the
OR of a prefix of buckets, where it used to be a scan of the whole
online population per query.  A level of a shifted subtree leaves one
bucket for another together, so the shift moves it as one mask.  The
roster is built by its first reader (:meth:`ChainIndex.delay_roster`),
so runs whose oracle never asks — the sharded, DHT and random-walk
realizations — build no mask at all.

The shifts also feed the **watch sets** (:meth:`ChainIndex.watch`):
every consumer that wants to know *which* nodes a mutation moved — the
health recorder folding them into its aggregates, the continuous engine
waking dormant nodes whose rule is no longer settled — asks for a set
of its own, and every shift adds each level's ids to each of them
(``rebuild()`` adds every id, the liveness hooks the one node).

The same walk keeps what every round used to re-derive.  **Quality
counters** over the online consumers — parented, rooted, satisfied,
their summed slack and the rooted ``DelayAt`` histogram — move in the
hooks, by a level's size or by each moved node's latency, and
:func:`repro.core.convergence.measure` reads them.  The **unsettled
column** of the rule bound with :meth:`ChainIndex.bind` holds ``not
settled(node)`` for every parented node, written through the rule's
level form once per moved level (:mod:`repro.core.maintenance`).

Reads are O(1); a mutation pays the size of the subtree it moves, once
— the nodes the protocol would re-announce the chain metadata to.
:attr:`~repro.core.tree.Overlay.shifted_nodes` counts them.

Invariants (cross-checked by :meth:`ChainIndex.verify`, which
:meth:`Overlay.check_integrity` runs against the reference walk kept
in-tree as ``Overlay.walk_*``):

* for every node, its ``root`` column cell is the parentless top of its
  chain and its ``delay`` cell its ``DelayAt``: the hop count to that
  root, plus one unless the root is the source;
* a parentless node (including every offline node and the source) is its
  own root, at delay 1 (the source at delay 0);
* rootedness and depth are derived, never stored: a node is rooted iff
  ``root == SOURCE_ID``, and its depth is ``delay - 1 + rooted``;
* once built, the delay roster equals a from-scratch scan of the
  ``delay`` column and the liveness flags;
* the quality counters equal :func:`repro.core.convergence._forest_scan`,
  and the unsettled cell of every parented node the bound predicate.
"""

from __future__ import annotations

from itertools import zip_longest
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import TopologyError
from repro.core.node import SOURCE_ID, Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import ColumnarState
    from repro.core.tree import Overlay


#: A ``DelayAt`` bound no latency reaches.
_NEVER = 1 << 62


def _set_bit(roster: List[int], node_id: int, delay: int) -> None:
    """Set bit ``node_id`` of ``roster[delay]``, growing the list to it."""
    if delay >= len(roster):
        roster.extend([0] * (delay + 1 - len(roster)))
    roster[delay] |= 1 << node_id


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




class ChainIndex:
    """Per-node ``(Root, DelayAt)`` cache with subtree invalidation.

    Owned by one :class:`~repro.core.tree.Overlay`; the overlay calls the
    ``on_*`` hooks from its checked mutators *after* the parent/child
    links are updated.  The per-node facts live in the ``root`` and
    ``delay`` columns of the overlay's
    :class:`~repro.core.store.ColumnarState`, the two the readers ask
    for: the oracle filters read ``delay`` millions of times per run.
    ``DelayAt`` is the depth below the root for nodes whose root is the
    source and ``depth + 1`` (the potential delay of §2.1.3) otherwise;
    the source itself is its own root at delay 0.  Rootedness
    (``root == SOURCE_ID``) and depth (``delay - 1 + rooted``) follow
    from the two, so a moved node costs two column writes.

    Besides the per-node columns the index serves the *delay roster*
    (:meth:`delay_roster`): online consumers bucketed by ``DelayAt`` as
    bitsets over node ids, built on first read and from then on moved
    one level mask at a time in the same subtree shifts that update the
    columns.
    """

    def __init__(self, overlay: "Overlay", store: "ColumnarState") -> None:
        self._overlay = overlay
        self._store = store
        #: Delay-bucketed bitsets of the online consumers, or ``None``
        #: until :meth:`delay_roster` is first read.
        self._roster: Optional[List[int]] = None
        #: Watch sets handed out by :meth:`watch`, one per consumer; while
        #: there is none the overlay skips :meth:`mark`.
        self.watchers: List[Set[int]] = []
        #: The bound ``settled`` predicate (:meth:`bind`), its level form.
        self.settled_rule: Optional[Callable] = None
        self._level: Optional[Callable] = None
        #: Quality counters over the online consumers (set by rebuild),
        #: the rooted ones per ``DelayAt``, and the last ``measure()``.
        self.parented = self.rooted = self.satisfied = self.slack_sum = 0
        self._histogram: List[int] = []
        self.last_quality: Optional[tuple] = None
        self.register(overlay.source)  # so far the only node

    # ------------------------------------------------------------------
    # construction / registration
    # ------------------------------------------------------------------

    def watch(self) -> Set[int]:
        """A new *watch set*: from now on every node id whose chain facts
        or liveness change is added to it.

        Each consumer (:class:`repro.obs.health.HealthRecorder`, the
        continuous engine's wake-on-violation) asks for its own set and
        drains and clears it at its own pace; the ids are the ones the
        index traversal visits anyway, so watching does not change the
        asymptotics, and with no watcher a shift skips the notification.
        """
        watcher: Set[int] = set()
        self.watchers.append(watcher)
        return watcher

    def _notify(self, node_ids) -> None:
        """Add ``node_ids`` to every watch set."""
        for watcher in self.watchers:
            watcher.update(node_ids)

    def rebuild(self) -> None:
        """Recompute every node's chain facts from the reference walk
        (O(N·D)).

        A recovery hatch (the stabilization harness's sanitize pass); in
        normal operation the incremental hooks keep the index exact.
        Whatever bypassed the hooks may have moved any node, so every
        id goes to the watch sets, the quality counters are re-scanned
        and the unsettled column is refilled.
        """
        from repro.core.convergence import _forest_scan

        store = self._store
        overlay = self._overlay
        for node in overlay:
            i = node.node_id
            root = overlay.walk_fragment_root(node)
            store.root[i] = root.node_id
            store.delay[i] = overlay.walk_depth(node) + (not root.is_source)
        self._notify([node.node_id for node in overlay])
        if self._roster is not None:
            self._roster = self._scan_roster()
        parentless, self.rooted, self.satisfied, self.slack_sum, histogram = (
            _forest_scan(overlay)
        )
        self.parented = len(overlay._online) - parentless
        deepest = max(histogram, default=0)
        self._histogram = [histogram.get(d, 0) for d in range(deepest + 1)]
        self._fill_unsettled()

    def bind(self, settled: Callable) -> None:
        """Keep the unsettled column for ``settled`` (a predicate with a
        ``level`` form) in place of any rule bound before."""
        self.settled_rule = settled
        self._level = settled.level
        self._fill_unsettled()

    def _fill_unsettled(self) -> None:
        """Write the bound rule's cell of every parented node: shift each
        subtree below a fragment top onto the cells it already has."""
        overlay = self._overlay
        if self._level is None or not self.parented:
            return  # no rule, or no parented node to give a cell
        root, delay = self._store.root, self._store.delay
        for top in overlay.source.children + overlay.fragments()[1:]:
            self._shift_subtree(top, root[top.node_id], delay[top.node_id])

    def register(self, node: Node) -> None:
        """Index a newly added node: its own root, at delay 1 (the
        source at 0)."""
        store = self._store
        i = node.node_id
        store.root[i] = i
        store.delay[i] = 0 if node.is_source else 1
        self._sync_roster(node)
        self._notify((i,))

    def unregister(self, node: Node) -> None:
        """Note a permanently removed node
        (:meth:`~repro.core.tree.Overlay.remove_consumer`)."""
        self._notify((node.node_id,))

    # ------------------------------------------------------------------
    # mutation hooks (links already updated when these run)
    # ------------------------------------------------------------------

    def on_attach(self, child: Node, parent: Node) -> int:
        """``child`` (a fragment root) was attached under ``parent``;
        returns the number of nodes moved."""
        root = self._store.root
        c = child.node_id
        if root[c] == c:
            # It headed a fragment; ``splice``'s second attach moves a
            # child that was parented all along.
            self.parented += 1
        p = parent.node_id
        return self._shift_subtree(child, root[p], self._store.delay[p] + 1)

    def on_detach(self, child: Node) -> int:
        """``child`` was severed from its parent and heads its own
        fragment; returns the number of nodes moved."""
        self.parented -= 1
        return self._shift_subtree(child, child.node_id, 1)

    def touch(self, node: Node) -> None:
        """Record a liveness-only mutation of ``node``
        (``go_offline``/``go_online``).

        The departing/rejoining node's own chain facts are already the
        fragment-root identity — every structural consequence went
        through :meth:`on_detach` — but liveness changes what the delay
        roster sees, so the roster bit follows ``node.online``.
        """
        self._sync_roster(node)
        self._notify((node.node_id,))

    def mark(self, node: Node) -> None:
        """Note a non-chain change that health aggregates care about
        (fanout-slack shifts on a parent)."""
        self._notify((node.node_id,))

    def _shift_subtree(self, top: Node, root_id: int, delay: int) -> int:
        """Re-root ``top``'s subtree at ``root_id`` with ``top`` at
        ``DelayAt`` ``delay``; returns the number of nodes moved.

        The subtree is walked level by level.  Every node of one level
        gets the same ``root`` and ``delay`` cells, computed from
        ``top`` alone, and left the same delay bucket and rootedness
        (``top``'s old ones, plus the level), so a node's own cells are
        written, never read: two writes per moved node.  Each level moves
        between roster buckets as one mask, and the bound rule's level
        form writes its unsettled cells.  The walk visits each node once
        — this is the "a mutation pays the size of the moved subtree"
        cost — and a parent relation that loops back into the subtree
        trips the ``seen`` guard instead of spinning.
        """
        store = self._store
        root_col = store.root
        delay_col = store.delay
        unsettled = store.unsettled
        roster = self._roster
        histogram = self._histogram
        rule = self._level
        watchers = self.watchers
        limit = len(self._overlay)
        rooted = 1 if root_id == SOURCE_ID else 0
        old = delay_col[top.node_id]
        was_rooted = 1 if root_col[top.node_id] == SOURCE_ID else 0
        scored = rooted or was_rooted
        satisfied = slack = 0
        seen = 0
        level = [top]
        while level:
            size = len(level)
            seen += size
            if seen > limit:
                raise TopologyError(f"cycle detected under {top!r}")
            mask = 0
            below: List[Node] = []
            # Satisfied at the old delay iff ``latency >= lost``, and at
            # the new iff ``>= gained``; unrooted satisfies nobody.
            lost = old if was_rooted else _NEVER
            gained = delay if rooted else _NEVER
            for node in level:
                i = node.node_id
                root_col[i] = root_id
                delay_col[i] = delay
                if roster is not None:
                    mask |= 1 << i
                if node.children:
                    below += node.children
                if scored:
                    latency = node.latency
                    if latency >= lost:
                        satisfied -= 1
                        slack -= latency - lost
                    if latency >= gained:
                        satisfied += 1
                        slack += latency - gained
            if roster is not None:
                roster[old] ^= mask
                if delay >= len(roster):
                    roster.extend([0] * (delay + 1 - len(roster)))
                roster[delay] |= mask
            if was_rooted:
                histogram[old] -= size
            if rooted:
                if delay >= len(histogram):
                    histogram.extend([0] * (delay + 1 - len(histogram)))
                histogram[delay] += size
            if rule is not None:
                rule(unsettled, level, rooted, delay)
            if watchers:
                ids = [node.node_id for node in level]
                for watcher in watchers:
                    watcher.update(ids)
            level = below
            delay += 1
            old += 1
        self.rooted += (rooted - was_rooted) * seen
        self.satisfied += satisfied
        self.slack_sum += slack
        return seen

    def counts(self) -> Tuple[int, int, int, int, Dict[int, int]]:
        """``(parentless, rooted, satisfied, slack_sum, {DelayAt: rooted})``
        over the online consumers."""
        histogram = {d: n for d, n in enumerate(self._histogram) if n}
        parentless = len(self._overlay._online) - self.parented
        return parentless, self.rooted, self.satisfied, self.slack_sum, histogram

    def max_delay(self) -> int:
        """Largest ``DelayAt`` of a rooted online consumer (0 if none)."""
        histogram = self._histogram
        delay = len(histogram) - 1
        while delay > 0 and not histogram[delay]:
            delay -= 1
        return max(delay, 0)

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
        """The roster from scratch, off the delay column and liveness flags."""
        delay = self._store.delay
        roster: List[int] = []
        for node in self._overlay:
            if node.online and not node.is_source:
                _set_bit(roster, node.node_id, delay[node.node_id])
        return roster

    def _sync_roster(self, node: Node) -> None:
        """Make the roster bit of ``node`` agree with ``node.online``.

        For registration and churn transitions, where the node's delay
        stands still and only its membership changes.
        """
        roster = self._roster
        if roster is None:
            return
        delay = self._store.delay[node.node_id]
        if node.online:
            _set_bit(roster, node.node_id, delay)
        else:
            roster[delay] &= ~(1 << node.node_id)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Cross-check every node's chain facts against the reference
        walk; raises :class:`TopologyError` on the first divergence.

        This is the index's safety net: the naive walking implementation
        survives in-tree (``Overlay.walk_fragment_root`` /
        ``Overlay.walk_depth``) precisely so the incremental bookkeeping
        can be audited against ground truth at any time.
        """
        store = self._store
        overlay = self._overlay
        for node in overlay:
            i = node.node_id
            root_id = store.root[i]
            delay = store.delay[i]
            walk_root = overlay.walk_fragment_root(node)
            walk_delay = overlay.walk_depth(node) + (not walk_root.is_source)
            if root_id != walk_root.node_id or delay != walk_delay:
                raise TopologyError(
                    f"chain index diverged at {node!r}: cached "
                    f"(root=id {root_id}, delay={delay}) vs walked "
                    f"(root={walk_root!r}, delay={walk_delay})"
                )
        if self._roster is not None and any(
            kept != scanned
            for kept, scanned in zip_longest(
                self._roster, self._scan_roster(), fillvalue=0
            )
        ):
            raise TopologyError(
                "delay roster diverged from the delay column and liveness flags"
            )
        from repro.core.convergence import _forest_scan

        if self.counts() != _forest_scan(overlay):
            raise TopologyError("quality counters diverged from the forest scan")
        settled = self.settled_rule
        owner = SimpleNamespace(overlay=overlay)  # all a predicate reads
        for node in overlay._online if settled is not None else ():
            cell = store.unsettled[node.node_id]
            if node.parent is not None and cell == settled(owner, node):
                raise TopologyError(f"unsettled column diverged at {node!r}")
