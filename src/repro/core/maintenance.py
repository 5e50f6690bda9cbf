"""Maintenance operations (§3.2 and the Hybrid damping rule of §3.4).

A node whose latency constraint cannot be met in its current position must
discard its parent and locally restart construction — but doing so eagerly
("knee-jerk", in the paper's words) wastes the structure already built and
inflates overlay dynamicity.  The paper therefore derives *lazy* rules:

Greedy (Algorithm 1)
    Leave the parent iff ``DelayAt(i) == l_i + 1`` **and** ``Root(i) == 0``.
    The §3.2 Lemma proves this exact condition identifies precisely the
    first (most upstream) constraint-violated node of a chain, because the
    greedy invariant ``l_parent <= l_child`` holds on every edge.

Hybrid (§3.4)
    The invariant does not hold, so ``DelayAt`` can overshoot ``l_i + 1``
    arbitrarily and the exact condition is no longer sufficient.  Instead a
    node with ``DelayAt(i) > l_i`` and ``Root(i) == 0`` waits for a
    *maintenance timeout* before leaving, damping knee-jerk reactions.

Both rules fire only for nodes rooted at the source: an unrooted fragment
reports only *potential* delay, and tearing it down would destroy reusable
structure (the ``j <- i`` example of §3.2).

Settled nodes
    Laziness has a second reading the simulator's clocks rely on: a node
    whose rule has nothing to do *now* has nothing to do until its parent
    link or its chain metadata (``Root``, ``DelayAt``) next changes, or
    (Hybrid) its damping count does, because the rules read nothing
    else.  Each rule therefore comes with a ``*_settled`` predicate,
    defined beside it here, that is true only in that case: the rule
    would return ``False`` and write no state.  The round sweeps skip
    settled nodes and the continuous clock lets them sleep until the
    chain index reports a change
    (:meth:`repro.core.protocol.ConstructionAlgorithm.settled`).

    Each predicate carries a *level form* (its ``level`` attribute): the
    rule for one level of a shifted subtree, whose nodes share ``Root``
    and ``DelayAt``.  The chain index calls it per moved level and so
    keeps an *unsettled column*, ``not settled(node)`` on every parented
    node (:meth:`repro.core.index.ChainIndex.bind`), which both clocks
    read; the Hybrid rule writes its cell where it clears the damping
    count.  The predicate stays the reference ``check_integrity()``
    compares the column with, and *is* the algorithm's ``settled``
    method (``settled = greedy_settled`` in the class body).
"""

from __future__ import annotations

from repro.core.node import SOURCE_ID, Node
from repro.core.tree import Overlay


def greedy_settled(algorithm, node: Node) -> bool:
    """Whether :func:`greedy_maintenance` has nothing to do at ``node``
    until its chain changes: anything but rooted at ``DelayAt == l + 1``."""
    store = algorithm.overlay.store
    node_id = node.node_id
    # A rooted consumer's delay is at least 1, so 0 stands for unrooted.
    delay = store.delay[node_id] if store.root[node_id] == SOURCE_ID else 0
    return delay != node.latency + 1


def _greedy_level(unsettled, level, rooted: int, delay: int) -> None:
    target = delay - 1 if rooted else -1
    for node in level:
        unsettled[node.node_id] = node.latency == target


greedy_settled.level = _greedy_level


def greedy_maintenance(overlay: Overlay, node: Node) -> bool:
    """Algorithm 1: leave iff ``DelayAt == l + 1`` and rooted at the source.

    Returns ``True`` if the node discarded its parent.
    """
    if node.parent is None or node.is_source or not node.online:
        return False
    if not overlay.is_rooted(node):
        return False
    if overlay.delay_at(node) != node.latency + 1:
        return False
    former_parent = node.parent
    probe = overlay.probe
    observed = probe.enabled
    if observed:
        probe.maintenance_trigger(
            node.node_id, "greedy", node.latency + 1, node.latency
        )
    overlay.detach(node, reason="maintenance")
    node.rounds_without_parent = 0
    # The node knows its upstream chain (§2.1.3): being exactly one hop too
    # deep, its former grandparent is where it needs to sit — start there.
    if former_parent is not None and former_parent.parent is not None:
        node.referral = former_parent.parent
        if observed:
            probe.referral(
                node.node_id, former_parent.parent.node_id, "maintenance"
            )
    return True


def hybrid_settled(algorithm, node: Node) -> bool:
    """Whether :func:`hybrid_maintenance` has nothing to do at ``node``
    until its chain changes: not rooted beyond its constraint, and no
    damping count left to clear (the visit that resets
    ``violation_rounds`` after a violation went away is still owed)."""
    if node.violation_rounds:
        return False
    store = algorithm.overlay.store
    node_id = node.node_id
    delay = store.delay[node_id] if store.root[node_id] == SOURCE_ID else 0
    return delay <= node.latency


def _hybrid_level(unsettled, level, rooted: int, delay: int) -> None:
    limit = delay if rooted else 0
    for node in level:
        unsettled[node.node_id] = node.violation_rounds != 0 or node.latency < limit


hybrid_settled.level = _hybrid_level


def hybrid_maintenance(
    overlay: Overlay,
    node: Node,
    maintenance_timeout: int,
) -> bool:
    """Timeout-damped rule for the Hybrid algorithm (§3.4).

    The node's :attr:`~repro.core.node.Node.violation_rounds` counter is
    advanced while ``DelayAt > l`` and ``Root == 0`` hold, cleared when the
    violation disappears (e.g. an upstream reconfiguration fixed it), and
    the parent is discarded only once the counter exceeds
    ``maintenance_timeout`` consecutive rounds.

    Returns ``True`` if the node discarded its parent this round.
    """
    if node.parent is None or node.is_source or not node.online:
        return False
    delay = overlay.delay_at(node)
    violated = overlay.is_rooted(node) and delay > node.latency
    if not violated:
        node.violation_rounds = 0
        # With the count cleared the node is settled; a violation keeps
        # the cell the shift wrote (1), so this is the one damping write.
        if overlay.chain_index.settled_rule is hybrid_settled:
            overlay.store.unsettled[node.node_id] = 0
        return False
    node.violation_rounds += 1
    if node.violation_rounds <= maintenance_timeout:
        return False
    # Walk the (locally known, §2.1.3) upstream chain to the deepest
    # ancestor shallow enough to satisfy this node, and start the search
    # there — the iterative "use k as next reference" of Alg. 2, jumped in
    # one go because the chain is piggy-backed anyway.  The node is rooted
    # here, so every ancestor's delay is exactly one less per hop up:
    # derive them by decrementing instead of re-querying per step (the
    # former per-ancestor ``delay_at`` walk made this scan O(depth²)).
    ancestor = node.parent
    ancestor_delay = delay - 1
    while (
        ancestor is not None
        and not ancestor.is_source
        and ancestor_delay >= node.latency
    ):
        ancestor = ancestor.parent
        ancestor_delay -= 1
    probe = overlay.probe
    observed = probe.enabled
    if observed:
        probe.maintenance_trigger(node.node_id, "hybrid", delay, node.latency)
    overlay.detach(node, reason="maintenance")
    node.violation_rounds = 0
    node.rounds_without_parent = 0
    if ancestor is not None:
        node.referral = ancestor
        if observed:
            probe.referral(node.node_id, ancestor.node_id, "maintenance")
    return True


def eager_settled(algorithm, node: Node) -> bool:
    """Whether :func:`eager_maintenance` has nothing to do at ``node``
    until its chain changes: ``DelayAt <= l``, rooted or not."""
    return algorithm.overlay.store.delay[node.node_id] <= node.latency


def _eager_level(unsettled, level, rooted: int, delay: int) -> None:
    for node in level:
        unsettled[node.node_id] = node.latency < delay


eager_settled.level = _eager_level


def eager_maintenance(overlay: Overlay, node: Node) -> bool:
    """The knee-jerk rule the paper argues *against* (§3.2): leave as soon
    as the latency constraint is violated, even in unrooted fragments.

    Provided as an ablation baseline
    (``repro.experiments.ablations.maintenance_comparison``) to quantify
    how much the lazy rules buy.
    """
    if node.parent is None or node.is_source or not node.online:
        return False
    delay = overlay.delay_at(node)
    if delay <= node.latency:
        return False
    if overlay.probe.enabled:
        overlay.probe.maintenance_trigger(
            node.node_id, "eager", delay, node.latency
        )
    overlay.detach(node, reason="maintenance")
    node.rounds_without_parent = 0
    return True
