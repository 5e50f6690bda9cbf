"""Seeded arbitrary-state generator: mangle a live overlay.

Self-stabilization is a claim about *arbitrary* states, so the
corruptions here deliberately bypass the checked :class:`Overlay`
mutators and write node links, liveness bits and chain-index columns
directly — the resulting states violate invariants no protocol run
could ever produce (cycles, fanout overflows, offline interior nodes
with live edges, chain columns that lie about the structure).

Two rules keep the corruption *representable*:

* raw link writes keep ``parent`` pointers and ``children`` lists
  mutually consistent, so a corrupted state means "the overlay's
  invariants are broken", never "a node's links contradict each
  other";
* the source is never corrupted (it is the one fixed point every
  self-stabilizing overlay construction assumes).

The ``_online`` roster is deliberately left stale by liveness flips —
roster divergence is part of the corrupted state and
:func:`repro.stabilize.harness.sanitize` must rebuild it.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Set

from repro.core.node import Node
from repro.core.tree import Overlay

#: All corruption kinds, in application order.  Parent cycles go last so
#: the earlier kinds can still reason about subtree membership with a
#: plain walk; every walk below is nonetheless visited-guarded, because
#: once cycles exist *nothing* about the structure may be assumed.
CORRUPTION_KINDS = (
    "orphan-subtree",
    "latency-violation",
    "stale-index",
    "offline-interior",
    "parent-cycle",
)


def _raw_set_parent(
    overlay: Overlay, child: Node, parent: Optional[Node]
) -> None:
    """Rewire ``child`` under ``parent`` bypassing every structural check."""
    old = child.parent
    if old is not None and child in old.children:
        old.children.remove(child)
    child.parent = parent
    if parent is not None and child not in parent.children:
        parent.children.append(child)


def _in_subtree(root: Node, target: Node) -> bool:
    """Whether ``target`` is ``root`` or below it (visited-guarded)."""
    stack = [root]
    seen: Set[int] = set()
    while stack:
        node = stack.pop()
        if node is target:
            return True
        if node.node_id in seen:
            continue
        seen.add(node.node_id)
        stack.extend(node.children)
    return False


def corrupt_overlay(
    overlay: Overlay,
    rng: random.Random,
    kinds: Sequence[str] = CORRUPTION_KINDS,
    intensity: float = 0.25,
) -> Dict[str, int]:
    """Apply the selected corruption kinds; return ``{kind: count}``.

    ``intensity`` scales how many nodes each kind touches (fraction of
    the population, at least one).  The same ``(overlay state, rng
    state, kinds, intensity)`` always produces the same corruption —
    the property suite relies on the determinism to shrink failures.
    """
    applied: Dict[str, int] = {}
    consumers = overlay.consumers
    if not consumers:
        return applied
    budget = max(1, round(len(consumers) * intensity))
    for kind in kinds:
        if kind == "orphan-subtree":
            parented = [n for n in consumers if n.parent is not None]
            victims = rng.sample(parented, min(budget, len(parented)))
            for node in victims:
                _raw_set_parent(overlay, node, None)
            count = len(victims)
        elif kind == "latency-violation":
            count = 0
            for _ in range(budget):
                child = rng.choice(consumers)
                parent = rng.choice(consumers)
                # No self-loops, and no cycles from *this* kind — the
                # dedicated parent-cycle kind owns those.
                if parent is child or _in_subtree(child, parent):
                    continue
                _raw_set_parent(overlay, child, parent)
                count += 1
        elif kind == "stale-index":
            victims = rng.sample(consumers, min(budget, len(consumers)))
            store = overlay.store
            for node in victims:
                i = node.node_id
                # Lie about both chain cells: claim the node roots its
                # own fragment at a shifted delay.
                store.root[i] = i
                # A retired depth column's shift: drawn and dropped, so
                # the rest of the stream stays where seeded runs expect.
                rng.randint(1, 4)
                store.delay[i] += rng.randint(1, 5)
            count = len(victims)
        elif kind == "offline-interior":
            interior = [
                n for n in consumers if n.online and len(n.children) > 0
            ]
            victims = rng.sample(interior, min(budget, len(interior)))
            for node in victims:
                # Liveness flips without detaching links or updating
                # the roster.
                node.online = False
            count = len(victims)
        elif kind == "parent-cycle":
            pool = [n for n in consumers if n.online]
            size = min(max(2, budget), len(pool))
            if size < 2:
                count = 0
            else:
                ring = rng.sample(pool, size)
                for index, node in enumerate(ring):
                    _raw_set_parent(
                        overlay, node, ring[(index + 1) % len(ring)]
                    )
                count = size
        else:
            raise ValueError(
                f"unknown corruption kind {kind!r}; "
                f"choose from {CORRUPTION_KINDS}"
            )
        applied[kind] = count
    return applied
