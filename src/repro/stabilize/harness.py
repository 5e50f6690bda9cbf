"""Sanitize-then-converge: the self-stabilization harness.

Self-stabilizing overlay constructions split recovery into two layers
(Avatar, PAPERS.md): a *local reset* every node can perform by checking
its own links against locally checkable predicates, followed by the
ordinary construction protocol rebuilding the structure.

:func:`sanitize` is the local reset, expressed as one deterministic
pass over the overlay.  Every action it takes is the aggregate of a
purely local rule — "my neighbor is offline → drop the edge", "my
parent chain revisits me → leave", "I have more children than fanout →
shed the laxest" — so running it centrally is only a simulation
convenience, not extra power.  It restores exactly the invariants
``Overlay.check_integrity()`` checks (and, for greedy, the §3.2 edge
invariant ``l_parent <= l_child``, without which the Lemma behind
Algorithm 1's exact maintenance condition does not hold and a rooted
chain stuck at ``DelayAt > l+1`` would never self-repair).  It never
creates an edge: repair of what it severed is entirely the protocol's
job.

:func:`converge` then runs plain construction rounds — the same
shuffled step/maintain loop as :class:`repro.sim.runner.Simulation` —
until the overlay converges, and :func:`stabilize` composes the two and
verifies ``check_integrity()`` at the end.  :func:`round_bound` is the
documented bound the property suite holds the whole pipeline to.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.core.node import Node
from repro.core.protocol import ProtocolConfig
from repro.core.tree import Overlay
from repro.oracles.distributed import realize_oracle
from repro.sim.rng import StreamFactory, shuffle
from repro.sim.runner import ALGORITHMS
from repro.stabilize.corrupt import _raw_set_parent


def round_bound(population: int) -> int:
    """The documented convergence bound for :func:`stabilize`.

    Empirically (see ``bench stabilize.converge``) sanitized overlays
    re-converge in well under ``2·N`` rounds even for greedy under the
    random-walk realization; ``8·N + 60`` leaves generous headroom so
    the property suite fails only on genuine non-convergence (a true
    livelock keeps going forever — any finite bound catches it), not on
    an unlucky oracle sequence.
    """
    return 8 * population + 60


@dataclasses.dataclass(frozen=True)
class SanitizeReport:
    """What the local reset severed/rebuilt (counts, for assertions)."""

    roster_fixes: int
    offline_severed: int
    cycles_broken: int
    fanout_shed: int
    policy_severed: int


@dataclasses.dataclass(frozen=True)
class StabilizeOutcome:
    """Result of one :func:`stabilize` run."""

    sanitize: SanitizeReport
    converged: bool
    rounds: int
    bound: int


def sanitize(overlay: Overlay, algorithm: str = "hybrid") -> SanitizeReport:
    """The local reset: restore structural invariants, never attach.

    After this returns, ``overlay.check_integrity()`` passes for any
    input state whose node *table* is intact (the corruption generator
    never touches the table or the source).  Order matters and is
    documented inline; every pass iterates in node-id order so the
    repair is deterministic.
    """
    consumers = overlay.consumers  # id-ordered copy
    # 1. Liveness roster: recompute from the per-node online bits (the
    #    corruption generator leaves the roster stale on purpose).
    #    Every id the rewrite moves in or out goes to the liveness feeds.
    fixed_roster = [n for n in consumers if n.online]
    roster_fixes = 0 if overlay._online == fixed_roster else 1
    if roster_fixes:
        overlay.notify_liveness(
            {n.node_id for n in overlay._online}.symmetric_difference(
                n.node_id for n in fixed_roster
            )
        )
    overlay._online = fixed_roster
    # 2. Sever every edge with an offline endpoint: an offline node
    #    neither serves nor receives the stream.
    offline_severed = 0
    for node in consumers:
        parent = node.parent
        if parent is not None and (not node.online or not parent.online):
            _raw_set_parent(overlay, node, None)
            offline_severed += 1
    # 3. Break parent cycles: walk each chain with a visited map; on
    #    revisiting, sever the smallest-id member of the cycle (the
    #    local rule: a node seeing itself on its own upstream chain
    #    leaves its parent; smallest-id is the deterministic tiebreak
    #    for whose leave "wins").
    cycles_broken = 0
    done: Set[int] = set()
    for start in consumers:
        if start.node_id in done:
            continue
        chain: List[Node] = []
        seen: Dict[int, int] = {}
        current: Optional[Node] = start
        while (
            current is not None
            and not current.is_source
            and current.node_id not in done
        ):
            node_id = current.node_id
            if node_id in seen:
                cycle = chain[seen[node_id]:]
                victim = min(cycle, key=lambda n: n.node_id)
                _raw_set_parent(overlay, victim, None)
                cycles_broken += 1
                break
            seen[node_id] = len(chain)
            chain.append(current)
            current = current.parent
        done.update(n.node_id for n in chain)
    # 4. Rebuild every children list from the (now acyclic, liveness-
    #    clean) parent pointers — duplicates and phantom entries vanish.
    for node in [overlay.source] + consumers:
        node.children.clear()
    for node in consumers:
        if node.parent is not None:
            node.parent.children.append(node)
    # 5. Enforce fanout bounds: shed the laxest children (highest
    #    latency budget — they re-attach most easily; id tiebreak).
    fanout_shed = 0
    for node in [overlay.source] + consumers:
        while len(node.children) > node.fanout:
            victim = max(node.children, key=lambda c: (c.latency, c.node_id))
            _raw_set_parent(overlay, victim, None)
            fanout_shed += 1
    # 6. Greedy only: restore the §3.2 edge invariant l_parent <=
    #    l_child.  With it, the Lemma guarantees the most upstream
    #    violated node of any rooted chain sits at exactly DelayAt ==
    #    l+1 — the one state greedy maintenance repairs — so no further
    #    delay-based pruning is needed.
    policy_severed = 0
    if algorithm == "greedy":
        for node in consumers:
            parent = node.parent
            if (
                parent is not None
                and not parent.is_source
                and parent.latency > node.latency
            ):
                _raw_set_parent(overlay, node, None)
                policy_severed += 1
    # 7. Derived state: clear per-node protocol scratch (referrals may
    #    point at severed positions; timers/violation counters restart),
    #    then recompute the chain index from the reference walk (also
    #    fixes any lying entries, re-scans the quality counters and
    #    refills the unsettled column from the cleared counters).
    for node in consumers:
        node.reset_protocol_state()
    overlay.chain_index.rebuild()
    return SanitizeReport(
        roster_fixes=roster_fixes,
        offline_severed=offline_severed,
        cycles_broken=cycles_broken,
        fanout_shed=fanout_shed,
        policy_severed=policy_severed,
    )


def converge(
    overlay: Overlay,
    algorithm: str = "hybrid",
    oracle: str = "random-delay",
    realization: str = "omniscient",
    seed: int = 0,
    max_rounds: int = 4000,
    protocol: Optional[ProtocolConfig] = None,
) -> Tuple[bool, int]:
    """Run plain construction rounds until convergence or the budget.

    Returns ``(converged, rounds_run)``.  Usable both for initial
    construction on an explicitly-built overlay and for post-sanitize
    recovery; the loop is the runner's round protocol (shuffled roster,
    maintain-if-parented else step) without churn/fault phases.
    """
    streams = StreamFactory(seed)
    oracle_obj = realize_oracle(
        realization, oracle, overlay, streams.get("oracle")
    )
    construction = ALGORITHMS[algorithm](
        overlay, oracle_obj, protocol or ProtocolConfig()
    )
    construction.backoff_rng = streams.get("backoff")
    order = streams.get("order")
    now = 0
    if overlay.is_converged():
        return True, 0
    while now < max_rounds:
        now += 1
        oracle_obj.on_round(now)
        roster = overlay.online_consumers
        shuffle(order, roster)
        construction.sweep(roster)
        if overlay.is_converged():
            return True, now
    return overlay.is_converged(), now


def stabilize(
    overlay: Overlay,
    algorithm: str = "hybrid",
    oracle: str = "random-delay",
    realization: str = "omniscient",
    seed: int = 0,
    bound: Optional[int] = None,
    protocol: Optional[ProtocolConfig] = None,
) -> StabilizeOutcome:
    """Local reset + protocol rounds until whole; verify integrity.

    ``bound`` defaults to :func:`round_bound` of the online population.
    Raises (via ``check_integrity``) if sanitize left an invariant
    broken or the protocol re-broke one — the property suite treats any
    raise as a failure.
    """
    report = sanitize(overlay, algorithm=algorithm)
    overlay.check_integrity()
    if bound is None:
        bound = round_bound(len(overlay.online_consumers))
    converged, rounds = converge(
        overlay,
        algorithm=algorithm,
        oracle=oracle,
        realization=realization,
        seed=seed,
        max_rounds=bound,
        protocol=protocol,
    )
    overlay.check_integrity()
    return StabilizeOutcome(
        sanitize=report, converged=converged, rounds=rounds, bound=bound
    )
