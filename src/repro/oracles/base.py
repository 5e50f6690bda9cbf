"""Oracles: partial global information for choosing interaction partners.

LagOver construction relies on random bilateral interactions; the *Oracle*
(§2.1.4) is the service that hands an enquiring node a random partner,
optionally filtered by some degree of global knowledge.  The paper defines
four, in increasing order of information used:

=====================  ======  ====================================================
Oracle                 Figure  Filter applied to the candidate
=====================  ======  ====================================================
Random                 O1      none (baseline: no global information)
Random-Capacity        O2a     has free capacity (unused fanout)
Random-Delay-Capacity  O2b     free capacity *and* delay < enquirer's constraint
Random-Delay           O3      delay < enquirer's constraint (capacity ignored)
=====================  ======  ====================================================

The headline finding of §5.2 is that O3 is the sweet spot: delay filtering
avoids useless partners, while *not* filtering on capacity keeps
reconfiguration-enabling interactions available — O2a/O2b can starve
(return nobody) precisely when only reconfigurations could make progress.

This module implements the oracles as an omniscient directory over the
simulated overlay, matching the paper's simulation setup.  Distributed
realizations — a random-walk sampler over an unstructured overlay for O1
and a DHT-backed directory for the filtered oracles, as the paper sketches
via OpenDHT/Syndic8 — live in :mod:`repro.oracles.distributed`.
"""

from __future__ import annotations

import abc
import random
from functools import reduce
from operator import or_
from typing import List, Optional

from repro.core.index import kth_set_bit
from repro.core.node import Node
from repro.core.tree import Overlay


class Oracle(abc.ABC):
    """A partner-sampling service bound to one overlay and one RNG stream."""

    #: Short identifier used in experiment configs and reports.
    name: str = "abstract"
    #: The paper's figure label (O1, O2a, O2b, O3).
    figure_label: str = ""

    def __init__(self, overlay: Overlay, rng: random.Random) -> None:
        self.overlay = overlay
        self.rng = rng
        #: Number of queries answered with a partner.
        self.hits = 0
        #: Number of queries for which no suitable partner existed.
        self.misses = 0

    @property
    def probe(self):
        """The run's observability probe (shared through the overlay)."""
        return self.overlay.probe

    def on_round(self, now: int) -> None:
        """Hook called once per simulation round, before node actions.

        Omniscient oracles need no upkeep; distributed realizations use
        this for gossip shuffles and directory re-registrations.
        """

    def sample(self, enquirer: Node) -> Optional[Node]:
        """Return a random partner for ``enquirer``, or ``None`` if no node
        currently passes this oracle's filter (the enquirer then waits and
        retries — Alg. 2's explicit exception).

        The candidates are a bitset over node ids (:meth:`_eligible`
        minus the enquirer), never a list: their number is a popcount,
        and the draw — the same ``_randbelow(count)`` that
        ``rng.choice(candidates)`` made over the id-ordered list of the
        former O(N) scan — picks the k-th lowest set bit, which is the
        k-th candidate of that list.  Every seeded run is therefore
        draw for draw what it was with the scan.
        """
        candidates = self._candidates(enquirer)
        count = candidates.bit_count()
        probe = self.overlay.probe
        if not count:
            self.misses += 1
            if probe.enabled:
                probe.oracle_miss(enquirer.node_id, self.name)
            return None
        self.hits += 1
        partner = self._draw(candidates, count)
        if probe.enabled:
            probe.oracle_query(
                enquirer.node_id, self.name, count, partner.node_id
            )
        return partner

    def _candidates(self, enquirer: Node) -> int:
        """Ids of everyone :meth:`sample` may return, as a bitset."""
        return self._eligible(enquirer) & ~(1 << enquirer.node_id)

    def _draw(self, candidates: int, count: int) -> Node:
        """One uniform draw from a non-empty candidate bitset."""
        return self.overlay.node(
            kth_set_bit(candidates, self.rng.choice(range(count)))
        )

    def _eligible(self, enquirer: Node) -> int:
        """Bitset of the online consumers that pass this oracle's filter.

        The default folds the per-candidate ``_admits`` over the online
        roster — what the capacity, rooted and multipath-disjoint
        filters use, and the reference the indexed overrides are tested
        against.  Oracles whose filter is a function of ``DelayAt``
        alone override it with a read of the chain index's delay roster
        (:meth:`~repro.core.index.ChainIndex.delay_roster`).
        """
        admits = self._admits
        eligible = 0
        for node in self.overlay.online_consumers:
            if admits(enquirer, node):
                eligible |= 1 << node.node_id
        return eligible

    def admits(self, enquirer: Node, candidate: Node) -> bool:
        """Whether ``candidate`` passes this oracle's filter — the public
        face of ``_admits``, applied to the overlay's *live* state.

        Used by fault decorators (:class:`repro.faults.oracle.FaultGatedOracle`)
        that restrict the candidate pool (e.g. to one partition side) but
        must keep this oracle's own filter semantics.  Walk- and
        directory-based realizations override this with their filter
        applied to live values, since their ``_admits`` is unused.
        """
        return self._admits(enquirer, candidate)

    @abc.abstractmethod
    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        """Whether ``candidate`` passes this oracle's filter."""


class RandomOracle(Oracle):
    """O1 — any random consumer of the same feed; no global information."""

    name = "random"
    figure_label = "O1"

    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        return True

    def _eligible(self, enquirer: Node) -> int:
        return reduce(or_, self.overlay.chain_index.delay_roster(), 0)


class RandomCapacityOracle(Oracle):
    """O2a — a random consumer with free capacity (unused fanout),
    irrespective of whether the latency constraint would be satisfied."""

    name = "random-capacity"
    figure_label = "O2a"

    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        return candidate.free_fanout > 0


class RandomDelayCapacityOracle(Oracle):
    """O2b — a random consumer that can satisfy the enquirer's latency
    constraint *and* has free capacity.

    The most precise filter — and, per §5.2, often the worst performer: it
    disallows exactly the interactions through which reconfigurations
    happen, and can fail to return any partner at all.
    """

    name = "random-delay-capacity"
    figure_label = "O2b"

    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        return (
            candidate.free_fanout > 0
            and self.overlay.delay_at(candidate) < enquirer.latency
        )


class RandomDelayOracle(Oracle):
    """O3 — a random consumer whose delay is less than the enquirer's
    latency constraint, irrespective of free capacity.

    Capacity saturation of the candidate does not matter "since the
    LagOver network can potentially be reconfigured" (abstract) — the
    enquirer may take over one of the candidate's child slots or splice in
    above it.
    """

    name = "random-delay"
    figure_label = "O3"

    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        return self.overlay.delay_at(candidate) < enquirer.latency

    def _eligible(self, enquirer: Node) -> int:
        # ``DelayAt(j) < l_i`` is a prefix of the delay buckets.
        roster = self.overlay.chain_index.delay_roster()
        return reduce(or_, roster[: enquirer.latency], 0)


class RandomDelayRootedOracle(Oracle):
    """O3 variant: the delay filter additionally requires the candidate to
    be *rooted* at the source (its delay is actual, not potential).

    Not one of the paper's four oracles — an ablation probing this
    reproduction's §2.1.3 reading that chain metadata lets unrooted
    fragments advertise their potential delay.  With the rooted-only
    filter, parentless peers never meet each other through the oracle, so
    the opportunistic group formation of §3 is suppressed and every
    fragment must bootstrap through the source's timeout path.
    """

    name = "random-delay-rooted"
    figure_label = "O3r"

    def _admits(self, enquirer: Node, candidate: Node) -> bool:
        return (
            self.overlay.is_rooted(candidate)
            and self.overlay.delay_at(candidate) < enquirer.latency
        )


#: All omniscient oracle classes, keyed by their config name.  The four
#: paper oracles plus the rooted-only ablation variant.
ORACLES = {
    cls.name: cls
    for cls in (
        RandomOracle,
        RandomCapacityOracle,
        RandomDelayCapacityOracle,
        RandomDelayOracle,
        RandomDelayRootedOracle,
    )
}


def make_oracle(name: str, overlay: Overlay, rng: random.Random) -> Oracle:
    """Instantiate an oracle by config name (see :data:`ORACLES`)."""
    try:
        cls = ORACLES[name]
    except KeyError:
        raise ValueError(
            f"unknown oracle {name!r}; choose from {sorted(ORACLES)}"
        ) from None
    return cls(overlay, rng)


def oracle_names() -> List[str]:
    """Config names of all available omniscient oracles, O1..O3 order."""
    return ["random", "random-capacity", "random-delay-capacity", "random-delay"]
