"""The overlay forest and its delay model.

During construction the overlay is a *forest*: the source-rooted
dissemination tree plus any number of disconnected *fragments* whose roots
are parentless consumers (the paper's ``n <-/`` state).  :class:`Overlay`
owns all nodes, performs structurally-checked mutations (attach/detach,
churn transitions) and derives the chain metadata of §2.1.3.

Delay model
-----------
The paper measures delay in overlay hops anchored at the pull period of the
source's direct children (§2.1.2): a node pulling directly from the source
at period ``T`` sees information no staler than one unit, and every push
hop downstream adds one unit.  Hence for a node at ``h`` hops below the
source, ``DelayAt = h`` (direct children have ``h = 1``).  This matches the
paper's Fig. 1 walkthrough: in the chain ``c <- b <- a <- 0`` node *a*
meets ``l_a = 1``, *b* sees delay 2 and *c* delay 3.

For a node in a fragment that is *not* yet rooted at the source, the actual
delay is undefined; what is locally known (piggy-backed along the chain) is
the *potential* delay the node would observe if the fragment root attached
directly to the source: ``depth-in-fragment + 1``.  :meth:`Overlay.delay_at`
returns the actual delay for rooted nodes and this potential delay for
unrooted ones; use :meth:`Overlay.is_rooted` to distinguish (the
maintenance rules additionally require ``Root(i) == 0``, exactly as in the
paper).

Chain metadata used to be re-derived by walking the parent chain on every
read (O(depth) per read, O(N·D) per simulation round).  Reads now go
through an incrementally maintained :class:`~repro.core.index.ChainIndex`
(amortized O(1)); the original walking code survives as the
``walk_*`` reference implementations, and :meth:`Overlay.check_integrity`
cross-checks the index against them.  See ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.constraints import NodeSpec
from repro.core.errors import (
    FanoutExceededError,
    OfflineNodeError,
    TopologyError,
    UnknownNodeError,
)
from repro.core.index import ChainIndex
from repro.core.node import SOURCE_ID, Node, NodeId
from repro.core.store import ColumnarState
from repro.obs.probe import NULL_PROBE, Probe

_BY_NODE_ID = attrgetter("node_id")


def _remove_sorted(roster: List[Node], node: Node) -> None:
    """Delete ``node`` from an id-sorted roster by position: a bisect and
    one memmove, where ``list.remove`` compares its way up from index 0."""
    del roster[bisect_left(roster, node.node_id, key=_BY_NODE_ID)]


class Overlay:
    """A LagOver overlay-in-construction: the source plus all consumers.

    The class enforces *structural* invariants on every mutation (tree
    shape, fanout bounds, liveness); it deliberately does **not** enforce
    latency constraints — satisfying those is the construction algorithms'
    job, and transient violations are part of normal operation (§3.2).
    """

    def __init__(self, source_fanout: int, source_name: str = "0") -> None:
        #: Dense column storage of every node's state; each
        #: :class:`~repro.core.node.Node` is its view at one id.
        self.store = ColumnarState()
        self.source = self.store.allocate(
            NodeSpec(latency=1, fanout=source_fanout), source_name
        )
        self._nodes: Dict[NodeId, Node] = {SOURCE_ID: self.source}
        # Incrementally maintained rosters (id order): `_consumers` stays
        # sorted (ids only grow, except on free-list reuse which insorts);
        # `_online` is updated on churn transitions instead of being
        # refiltered O(N) on every access.
        self._consumers: List[Node] = []
        self._online: List[Node] = []
        #: Liveness feeds handed out by :meth:`watch_liveness`, held
        #: weakly: a feed whose consumer dropped it leaves the list.
        self._liveness_feeds: List["weakref.ref[Set[NodeId]]"] = []
        #: Chain-metadata index: keeps the store's chain columns exact
        #: through the checked mutators below, for O(1)
        #: ``Root``/``DelayAt`` reads.
        self.chain_index = ChainIndex(self, self.store)
        #: Lifetime counts of structural mutations, for the
        #: reconfiguration-cost metrics: ``attaches`` and ``detaches``.
        self.attach_count = 0
        self.detach_count = 0
        #: Lifetime count of nodes whose chain metadata a mutation moved
        #: (the summed sizes of every shifted subtree): the exact work
        #: of the chain index, and the metadata re-announcements of
        #: §2.1.3 the moves cost.
        self.shifted_nodes = 0
        #: Observability tap (:mod:`repro.obs`): every structural mutation
        #: is reported here.  The default :data:`~repro.obs.probe.NULL_PROBE`
        #: records nothing; :class:`repro.sim.runner.Simulation` installs
        #: the run's probe.
        self.probe: Probe = NULL_PROBE

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------

    def add_consumer(self, spec: NodeSpec, name: str = "") -> Node:
        """Create a new consumer with the given constraints and return it."""
        node = self.store.allocate(spec, name)
        self._nodes[node.node_id] = node
        if self._consumers and node.node_id < self._consumers[-1].node_id:
            # A recycled id (freed by remove_consumer) lands mid-roster.
            insort(self._consumers, node, key=_BY_NODE_ID)
            insort(self._online, node, key=_BY_NODE_ID)
        else:
            self._consumers.append(node)
            self._online.append(node)  # new consumers start online
        if self._liveness_feeds:
            self.notify_liveness((node.node_id,))
        self.chain_index.register(node)
        return node

    def remove_consumer(self, node: Node) -> None:
        """Permanently remove an *offline* consumer, freeing its id.

        This is departure-for-good (a permanently crashed or
        decommissioned peer), not churn: ordinary churn departures keep
        their id so a rejoin can never alias another consumer.  The dense
        id returns to the allocator's free list and the next
        :meth:`add_consumer` reuses it (property-tested in
        ``tests/test_store.py``).
        """
        if node not in self:
            raise UnknownNodeError(f"{node!r} is not in this overlay")
        if node.is_source:
            raise TopologyError("the source can never be removed")
        if node.online:
            raise OfflineNodeError(
                f"only offline consumers can be removed, got {node!r}"
            )
        if node.parent is not None or node.children:
            raise TopologyError(f"offline {node!r} still has links")
        del self._nodes[node.node_id]
        _remove_sorted(self._consumers, node)
        if self._liveness_feeds:
            self.notify_liveness((node.node_id,))
        self.chain_index.unregister(node)
        self.store.release(node.node_id)

    def watch_liveness(self) -> Set[NodeId]:
        """A new *liveness feed*: a set that starts with the ids of the
        consumers online now and, from now on, gets the id of every
        consumer that joins (``add_consumer``), leaves for good
        (``remove_consumer``), goes offline or comes back online.

        The membership twin of :meth:`ChainIndex.watch
        <repro.core.index.ChainIndex.watch>`: each consumer (the sharded
        directory's membership sync, the continuous engine's idle-actor
        scan) asks for its own set and drains and clears it at its own
        pace, so its upkeep costs the membership changes since its last
        drain, not the roster.  A new watcher has seen nobody, so its
        first drain meets the online roster like every later change.  A
        chain-index watch set would not do: it also gets every node a
        subtree shift moved.  Code that rewrites ``_online`` directly
        must report the ids it moved through :meth:`notify_liveness`.
        The overlay holds feeds weakly, so a consumer releases its feed
        by dropping it.
        """
        feed: Set[NodeId] = {node.node_id for node in self._online}
        self._hold_feed(feed)
        return feed

    def _hold_feed(self, feed: Set[NodeId]) -> None:
        feeds = self._liveness_feeds
        feeds.append(weakref.ref(feed, feeds.remove))

    def notify_liveness(self, node_ids: Iterable[NodeId]) -> None:
        """Add ``node_ids`` to every liveness feed."""
        for ref in self._liveness_feeds:
            feed = ref()
            if feed is not None:
                feed.update(node_ids)

    def __getstate__(self) -> dict:
        # Weak references do not pickle: a clone holds the live feeds,
        # which stay live as long as their consumers pickled with it.
        state = self.__dict__.copy()
        state["_liveness_feeds"] = [
            feed for feed in (ref() for ref in self._liveness_feeds) if feed is not None
        ]
        return state

    def __setstate__(self, state: dict) -> None:
        feeds = state.pop("_liveness_feeds")
        self.__dict__.update(state)
        self._liveness_feeds = []
        for feed in feeds:
            self._hold_feed(feed)

    def add_population(self, specs: Iterable[Tuple[str, NodeSpec]]) -> List[Node]:
        """Add many consumers from ``(name, spec)`` pairs (see
        :func:`repro.core.constraints.parse_population`)."""
        return [self.add_consumer(spec, name) for name, spec in specs]

    def node(self, node_id: NodeId) -> Node:
        """Look a node up by id; raises :class:`UnknownNodeError` if absent."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    @property
    def consumers(self) -> List[Node]:
        """All consumers (everything except the source), in id order.

        Served from the incrementally maintained roster; the returned
        list is a copy, safe for callers to shuffle or mutate.
        """
        return list(self._consumers)

    @property
    def online_consumers(self) -> List[Node]:
        """Consumers currently online, in id order (roster copy)."""
        return list(self._online)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __contains__(self, node: Node) -> bool:
        return self._nodes.get(node.node_id) is node

    # ------------------------------------------------------------------
    # chain metadata (§2.1.3)
    # ------------------------------------------------------------------

    def fragment_root(self, node: Node) -> Node:
        """``Root(i)``: the top of the chain the node currently belongs to.

        Returns the source if the node is connected to it, otherwise the
        parentless consumer heading the node's fragment (a node with no
        parent is its own root).  Amortized O(1) via the chain index.

        These five readers each make one membership test and one column
        read.  A node belongs to this overlay iff it *is* the store's
        view at its id, so a node of another overlay whose id happens to
        be in use here falls back to the reference walk like any other
        foreign node, instead of reading the local node's chain facts.
        """
        store = self.store
        node_id = node.node_id
        try:
            if store.nodes[node_id] is node:
                return store.nodes[store.root[node_id]]
        except IndexError:
            pass
        return self.walk_fragment_root(node)

    def depth(self, node: Node) -> int:
        """Number of hops from the node to its fragment root (O(1)):
        ``DelayAt - 1``, plus the one hop to the source if rooted."""
        store = self.store
        node_id = node.node_id
        try:
            if store.nodes[node_id] is node:
                return store.delay[node_id] - (store.root[node_id] != SOURCE_ID)
        except IndexError:
            pass
        return self.walk_depth(node)

    def is_rooted(self, node: Node) -> bool:
        """Whether ``Root(node)`` is the source (node 0)."""
        store = self.store
        node_id = node.node_id
        try:
            if store.nodes[node_id] is node:
                return store.root[node_id] == SOURCE_ID
        except IndexError:
            pass
        return self.walk_is_rooted(node)

    def delay_at(self, node: Node) -> int:
        """``DelayAt(i)``: actual delay if rooted, potential delay otherwise.

        The source itself has delay 0.  A rooted node at ``h`` hops below
        the source observes delay ``h``.  An unrooted node at ``h`` hops
        below its fragment root would observe ``h + 1`` once that root
        attaches directly to the source — the optimistic local estimate the
        construction algorithms plan with.  Amortized O(1).

        This is the single hottest read in the stack (the oracles filter
        every sampled candidate by it).  The source's own cell stores
        delay 0, so no special case is needed on this path.
        """
        store = self.store
        node_id = node.node_id
        try:
            if store.nodes[node_id] is node:
                return store.delay[node_id]
        except IndexError:
            pass
        return self.walk_delay_at(node)

    def meets_latency(self, node: Node) -> bool:
        """Whether the node is rooted at the source within its constraint."""
        store = self.store
        node_id = node.node_id
        try:
            if store.nodes[node_id] is node:
                return node_id == SOURCE_ID or (
                    store.root[node_id] == SOURCE_ID
                    and store.delay[node_id] <= node.latency
                )
        except IndexError:
            pass
        return self.walk_meets_latency(node)

    # ------------------------------------------------------------------
    # chain metadata, reference implementation (walk-on-read)
    # ------------------------------------------------------------------
    #
    # The pre-index walking code, kept in-tree on purpose: it is the
    # ground truth `check_integrity()` cross-checks the index against,
    # the fallback for nodes foreign to this overlay, and what the
    # golden-seed guard (tests/test_chain_index.py) swaps back in to
    # prove the index is behavior-invisible.

    def walk_fragment_root(self, node: Node) -> Node:
        """Reference ``Root(i)``: walk the parent chain (O(depth))."""
        current = node
        hops = 0
        while current.parent is not None:
            current = current.parent
            hops += 1
            if hops > len(self._nodes):
                raise TopologyError(f"cycle detected walking up from {node!r}")
        return current

    def walk_depth(self, node: Node) -> int:
        """Reference depth: count hops to the fragment root (O(depth))."""
        current = node
        hops = 0
        while current.parent is not None:
            current = current.parent
            hops += 1
            if hops > len(self._nodes):
                raise TopologyError(f"cycle detected walking up from {node!r}")
        return hops

    def walk_is_rooted(self, node: Node) -> bool:
        """Reference rootedness: derived from the walked root."""
        return self.walk_fragment_root(node).is_source

    def walk_delay_at(self, node: Node) -> int:
        """Reference ``DelayAt(i)``: derived from walked root and depth."""
        if node.is_source:
            return 0
        root = self.walk_fragment_root(node)
        hops = self.walk_depth(node)
        if root.is_source:
            return hops
        return hops + 1

    def walk_meets_latency(self, node: Node) -> bool:
        """Reference constraint check: derived from the walks."""
        if node.is_source:
            return True
        return self.walk_is_rooted(node) and self.walk_delay_at(node) <= node.latency

    def is_converged(self) -> bool:
        """True when every *online* consumer meets its latency constraint.

        This is the convergence criterion behind the paper's "construction
        latency" metric; fanout bounds hold by construction (enforced on
        every attach).  O(1): a read of the chain index's satisfied
        counter, which ``check_integrity()`` compares with a scan.
        """
        return self.chain_index.satisfied == len(self._online)

    def satisfied_fraction(self) -> float:
        """Fraction of online consumers whose latency constraint is met
        (O(1), off the chain index's satisfied counter)."""
        online = len(self._online)
        return self.chain_index.satisfied / online if online else 1.0

    # ------------------------------------------------------------------
    # subtree traversal
    # ------------------------------------------------------------------

    def subtree(self, node: Node) -> Iterator[Node]:
        """Yield the node and all its descendants, pre-order."""
        stack = [node]
        seen = 0
        while stack:
            current = stack.pop()
            seen += 1
            if seen > len(self._nodes):
                raise TopologyError(f"cycle detected under {node!r}")
            yield current
            stack.extend(reversed(current.children))

    def descendants(self, node: Node) -> Iterator[Node]:
        """Yield all strict descendants of the node, pre-order."""
        walker = self.subtree(node)
        next(walker)  # skip the node itself
        return walker

    def is_descendant(self, node: Node, ancestor: Node) -> bool:
        """Whether ``ancestor`` lies on the parent chain of ``node``.

        The reference walk for tests; the mutators test a cycle off the
        chain index in O(1) instead.
        """
        current = node.parent
        hops = 0
        while current is not None:
            if current is ancestor:
                return True
            current = current.parent
            hops += 1
            if hops > len(self._nodes):
                raise TopologyError(f"cycle detected walking up from {node!r}")
        return False

    def fragment_members(self, node: Node) -> List[Node]:
        """All nodes in the fragment the node belongs to."""
        return list(self.subtree(self.fragment_root(node)))

    # ------------------------------------------------------------------
    # checked mutations
    # ------------------------------------------------------------------

    def attach(self, child: Node, parent: Node) -> None:
        """Make ``child <- parent`` (``parent`` pushes to ``child``).

        Structural checks only: both online, child currently parentless,
        no cycle (``parent`` must not be a descendant of ``child``), and
        ``parent`` must have free fanout.  Latency constraints are *not*
        checked here — callers use :mod:`repro.core.interactions`.
        """
        self._check_link(child, parent)
        if parent.free_fanout <= 0:
            raise FanoutExceededError(
                f"{parent!r} has no free fanout (f={parent.fanout})"
            )
        self._link(child, parent)
        self.attach_count += 1
        if self.probe.enabled:
            self.probe.attach(child.node_id, parent.node_id)

    def _check_link(self, child: Node, parent: Node) -> None:
        """Raise unless ``child <- parent`` is a legal new edge, fanout
        aside: both members and online, ``child`` a parentless consumer
        and ``parent`` outside its subtree."""
        if child not in self or parent not in self:
            raise UnknownNodeError("attach with a node foreign to this overlay")
        if child is parent:
            raise TopologyError(f"cannot attach {child!r} to itself")
        if child.is_source:
            raise TopologyError("the source can never acquire a parent")
        if not child.online or not parent.online:
            raise OfflineNodeError(f"attach({child!r}, {parent!r}) with offline node")
        if child.parent is not None:
            raise TopologyError(f"{child!r} already has a parent")
        # ``child`` is parentless, so its subtree is exactly the nodes
        # the index roots at it.
        if self.store.root[parent.node_id] == child.node_id:
            raise TopologyError(f"attaching {child!r} under {parent!r} creates a cycle")

    def _link(self, child: Node, parent: Node) -> None:
        """Hang the parentless ``child`` below ``parent``, unchecked."""
        child.parent = parent
        parent.children.append(child)
        index = self.chain_index
        self.shifted_nodes += index.on_attach(child, parent)
        # The subtree shift noted the moved nodes; the parent's fanout
        # slack changed too, which only the watch sets care about.
        if index.watchers:
            index.mark(parent)
        # Any successful attach ends a source-contact backoff episode
        # (no-op unless backoff is enabled and an episode was running).
        child.source_failures = 0
        child.source_retry_timeout = 0

    def detach(self, child: Node, reason: str = "detach") -> Node:
        """Sever ``child`` from its parent (the paper's ``j -/-> i``).

        Returns the former parent.  The child keeps its own subtree and
        becomes a fragment root.  ``reason`` only annotates the emitted
        :class:`~repro.obs.events.Detach` event (which mechanism severed
        the edge); it never changes behaviour.
        """
        parent = child.parent
        if parent is None:
            raise TopologyError(f"{child!r} has no parent to leave")
        parent.children.remove(child)
        child.parent = None
        index = self.chain_index
        self.shifted_nodes += index.on_detach(child)
        if index.watchers:
            index.mark(parent)  # parent regained fanout slack
        self.detach_count += 1
        if self.probe.enabled:
            self.probe.detach(child.node_id, parent.node_id, reason)
        return parent

    def splice(self, incoming: Node, child: Node, reason: str) -> None:
        """Make ``child <- incoming <- parent`` out of ``child <- parent``.

        The parentless ``incoming`` takes ``child``'s slot under
        ``child``'s parent and adopts ``child``: the outcome, the
        counters, the probe events and their order are those of
        ``detach(child, reason)``, ``attach(incoming, parent)``,
        ``attach(child, incoming)``, and ``reason`` annotates the
        detach event the same way.  ``child``'s subtree keeps its root
        and moves one hop deeper in a single shift, where the three
        calls would move it out and back.  Every check runs before any
        link changes, so a refused splice leaves the overlay untouched.
        """
        parent = child.parent
        if parent is None:
            raise TopologyError(f"{child!r} has no parent to leave")
        # ``child`` has a parent, so it is an online member whenever
        # ``parent`` is one, and ``incoming is child`` fails as parented.
        self._check_link(incoming, parent)
        if incoming.free_fanout <= 0:
            raise FanoutExceededError(
                f"{incoming!r} has no free fanout (f={incoming.fanout})"
            )
        parent.children.remove(child)
        self._link(incoming, parent)
        self._link(child, incoming)
        self.detach_count += 1
        self.attach_count += 2
        probe = self.probe
        if probe.enabled:
            probe.detach(child.node_id, parent.node_id, reason)
            probe.attach(incoming.node_id, parent.node_id)
            probe.attach(child.node_id, incoming.node_id)

    # ------------------------------------------------------------------
    # churn transitions
    # ------------------------------------------------------------------

    def go_offline(
        self, node: Node, graceful: bool = True, reason: str = "churn"
    ) -> List[Node]:
        """Take a consumer offline (departure).

        The node is severed from its parent; each of its children becomes
        the parentless root of its own fragment (they keep their subtrees).
        Returns the orphaned children.

        ``graceful`` departures (the default — churn leaves are modelled
        as announced) hand each orphan a referral to the leaver's own
        parent: chain metadata is piggy-backed along the chain (§2.1.3),
        so an orphan knows its former grandparent — the natural first
        candidate for re-attachment (it just lost a child slot).  A
        *crash* (``graceful=False``, used by the fault injector) leaves
        no such hint: the orphans must rediscover partners through the
        oracle or the source.  ``reason`` annotates the emitted detach
        events (``{reason}`` for the edge above, ``{reason}-orphan``
        below) and never changes behaviour.
        """
        if node.is_source:
            raise TopologyError("the source never leaves (paper §2.1.2)")
        if not node.online:
            raise OfflineNodeError(f"{node!r} is already offline")
        grandparent = node.parent
        # Take the children off first: the leaver's detach then moves
        # the leaver alone, and each orphan subtree moves once, below.
        orphans = list(node.children)
        node.children.clear()
        if grandparent is not None:
            self.detach(node, reason=reason)
        probe = self.probe
        observed = probe.enabled
        for child in orphans:
            child.parent = None
            self.shifted_nodes += self.chain_index.on_detach(child)
            child.rounds_without_parent = 0
            # Not counted in detach_count (orphaning is the departing
            # node's doing, not a reconfiguration) but still observable.
            if observed:
                probe.detach(child.node_id, node.node_id, f"{reason}-orphan")
            if graceful and grandparent is not None and grandparent.online:
                child.referral = grandparent
                if observed:
                    probe.referral(child.node_id, grandparent.node_id, reason)
        node.online = False
        _remove_sorted(self._online, node)
        if self._liveness_feeds:
            self.notify_liveness((node.node_id,))
        self.chain_index.touch(node)
        node.reset_protocol_state()
        return orphans

    def go_online(self, node: Node) -> None:
        """Bring a consumer back online (churn rejoin), with fresh state."""
        if node.online:
            raise OfflineNodeError(f"{node!r} is already online")
        node.online = True
        insort(self._online, node, key=_BY_NODE_ID)
        if self._liveness_feeds:
            self.notify_liveness((node.node_id,))
        self.chain_index.touch(node)
        node.reset_protocol_state()

    # ------------------------------------------------------------------
    # integrity and rendering
    # ------------------------------------------------------------------

    def check_integrity(self) -> None:
        """Verify all structural invariants; raises on violation.

        Intended for tests and debug runs: parent/child links must be
        mutually consistent, fanout bounds respected, offline nodes fully
        disconnected, the parent relation acyclic, and the chain index
        and rosters exactly consistent with the reference walks.
        """
        for node in self._nodes.values():
            if len(node.children) > node.fanout:
                raise FanoutExceededError(f"{node!r} exceeds its fanout")
            if len(set(id(c) for c in node.children)) != len(node.children):
                raise TopologyError(f"{node!r} has duplicate children")
            for child in node.children:
                if child.parent is not node:
                    raise TopologyError(f"{child!r} not linked back to {node!r}")
                if not child.online or not node.online:
                    raise OfflineNodeError(f"offline node on edge {child!r}<-{node!r}")
            if node.parent is not None and node not in node.parent.children:
                raise TopologyError(f"{node!r} missing from its parent's children")
            if not node.online and (node.parent is not None or node.children):
                raise OfflineNodeError(f"offline {node!r} still has links")
        for node in self._nodes.values():
            self.walk_fragment_root(node)  # raises on cycles
        # Cross-validate the incremental structures against ground truth.
        self.chain_index.verify()
        self.store.verify(self)
        # Id reuse means the node table's insertion order is not id order;
        # the rosters' contract is id order, so compare against that.
        expected_consumers = sorted(
            (n for n in self._nodes.values() if not n.is_source),
            key=_BY_NODE_ID,
        )
        if self._consumers != expected_consumers:
            raise TopologyError("consumer roster diverged from the node table")
        if self._online != [n for n in expected_consumers if n.online]:
            raise TopologyError("online roster diverged from node liveness")

    def fragments(self) -> List[Node]:
        """Roots of all fragments: the source plus parentless online consumers."""
        return [self.source] + [n for n in self._online if n.parent is None]

    def render(self) -> str:
        """ASCII rendering of the forest, for examples and debugging."""
        lines: List[str] = []
        for root in self.fragments():
            self._render_subtree(root, prefix="", lines=lines)
        offline = [n.label() for n in self.consumers if not n.online]
        if offline:
            lines.append("offline: " + ", ".join(offline))
        return "\n".join(lines)

    def _render_subtree(self, node: Node, prefix: str, lines: List[str]) -> None:
        marker = "" if not prefix else "+- "
        delay = self.delay_at(node)
        rooted = "" if self.is_rooted(node) else " (unrooted)"
        lines.append(f"{prefix}{marker}{node.label()} delay={delay}{rooted}")
        for child in node.children:
            self._render_subtree(child, prefix + "   ", lines)

    def snapshot(self) -> Dict[NodeId, Optional[NodeId]]:
        """Parent map ``{node_id: parent_id or None}`` for tracing."""
        return {
            n.node_id: (n.parent.node_id if n.parent is not None else None)
            for n in self._nodes.values()
            if not n.is_source
        }
