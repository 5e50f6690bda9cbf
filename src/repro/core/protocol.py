"""Common machinery of the two LagOver construction protocols.

Both algorithms of §3 share an identical outer loop, executed independently
by every node that currently has no parent (Alg. 2, but the Greedy
algorithm's loop is the same):

* on *Timeout* (too many rounds spent parentless), contact the source
  directly — attach if it has free capacity, otherwise displace a direct
  child with a laxer latency constraint;
* otherwise, interact with a partner: the node referred during the last
  interaction if any, else a node sampled from the Oracle (§2.1.4);
* if the Oracle finds no suitable partner, wait and try again next round.

What differs is the *bilateral decision rule* applied during an
interaction, supplied by subclasses via :meth:`ConstructionAlgorithm._interact`,
and the maintenance rule (:mod:`repro.core.maintenance`).
"""

from __future__ import annotations

import abc
import dataclasses
import time
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.interactions import (
    EdgePolicy,
    try_attach,
    try_displace_at_source,
)
from repro.core.node import Node
from repro.core.tree import Overlay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.oracles.base import Oracle
    from repro.sim.asynchrony import AsynchronyModel


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of the construction/maintenance protocols (§2.1.1, §3).

    Attributes
    ----------
    timeout:
        Rounds a node remains parentless before contacting the source
        directly (the ``Timeout`` of Alg. 2).
    maintenance_timeout:
        Rounds a node whose latency constraint is violated while rooted at
        the source waits before discarding its parent (Hybrid maintenance
        damping, §3.4; ignored by the Greedy rule).  The paper prescribes
        *a* timeout but not its value; 1 round already suppresses
        knee-jerk reactions to transient upstream reconfigurations while
        staying responsive under churn (the timeout ablation bench sweeps
        this).
    pull_only_source:
        Whether the source supports only pulls (§2.1.2, the RSS case — the
        default) or can push, which changes the Hybrid decision at a
        source child (Alg. 2 steps 21+).
    source_backoff:
        Hardening (off by default, which preserves the paper's protocol
        bit-for-bit): after a failed direct source contact the node's
        personal retry timeout doubles — ``min(timeout * 2^failures,
        backoff_cap)`` plus up to ``backoff_jitter`` rounds of seeded
        jitter — instead of re-hammering the source every ``timeout``
        rounds.  Defuses the thundering herd after a mass rejoin or a
        source outage (see ``docs/RESILIENCE.md``).  Any successful
        attach resets the episode.
    backoff_cap:
        Upper bound on the backed-off retry timeout, in rounds.
    backoff_jitter:
        Maximum seeded jitter added to a backed-off retry timeout, in
        rounds (0 disables jitter); drawn from the dedicated ``backoff``
        RNG stream so enabling it never perturbs other streams.
    requeue_stale_referrals:
        Hardening (off by default): when the round's partner came from a
        referral but turns out to be in the node's own fragment (stale —
        e.g. a fault-era hint that predates a merge), immediately requery
        the oracle once instead of silently wasting the round.
    """

    timeout: int = 4
    maintenance_timeout: int = 1
    pull_only_source: bool = True
    source_backoff: bool = False
    backoff_cap: int = 64
    backoff_jitter: int = 2
    requeue_stale_referrals: bool = False

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise ConfigurationError("timeout must be >= 1 round")
        if self.maintenance_timeout < 0:
            raise ConfigurationError("maintenance_timeout must be >= 0")
        if self.backoff_cap < self.timeout:
            raise ConfigurationError(
                f"backoff_cap ({self.backoff_cap}) must be >= timeout "
                f"({self.timeout})"
            )
        if self.backoff_jitter < 0:
            raise ConfigurationError("backoff_jitter must be >= 0")


class ConstructionAlgorithm(abc.ABC):
    """One construction protocol instance bound to an overlay and an oracle.

    Subclasses implement the interaction decision rule and the maintenance
    rule; the shared timeout/referral/oracle loop lives here.
    """

    #: Short identifier used in experiment configs and reports.
    name: str = "abstract"

    #: Edge policy enforced on every consumer-to-consumer edge this
    #: algorithm creates.
    edge_ok: EdgePolicy

    #: Live fault conditions (:class:`repro.faults.state.FaultState`), set
    #: post-construction by the runner when a fault plan is installed.
    #: Class attribute rather than a constructor parameter so the
    #: ``algorithm_cls(overlay, oracle, config)`` construction idiom (and
    #: every registered subclass variant) keeps working unchanged.
    faults = None

    #: Dedicated RNG stream for backoff jitter (``random.Random`` or
    #: ``None``), set post-construction by the runner.  Only drawn from
    #: when ``config.source_backoff`` is enabled with nonzero jitter.
    backoff_rng = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The predicate belongs to the rule: a subclass that swaps
        # ``maintain`` without restating ``settled`` must not inherit
        # the replaced rule's, so it falls back to "never settled".
        if "maintain" in vars(cls) and "settled" not in vars(cls):
            cls.settled = ConstructionAlgorithm.settled

    def __init__(
        self,
        overlay: Overlay,
        oracle: "Oracle",
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        self.overlay = overlay
        self.oracle = oracle
        self.config = config if config is not None else ProtocolConfig()
        self.unsettled_column()  # bind the rule before anything moves

    @property
    def probe(self):
        """The run's observability probe (shared through the overlay)."""
        return self.overlay.probe

    # ------------------------------------------------------------------
    # outer loop, one step of a parentless node
    # ------------------------------------------------------------------

    def step(self, node: Node) -> None:
        """Run one construction round for a parentless node.

        Mirrors the ``while i <-/`` loop body of Alg. 2: timeout handling,
        then a single bilateral interaction with a referred or
        oracle-provided partner.
        """
        if node.is_source or node.parent is not None or not node.online:
            return
        node.rounds_without_parent += 1
        if node.rounds_without_parent > self._timeout_for(node):
            node.rounds_without_parent = 0
            if self.probe.enabled:
                self.probe.timeout(node.node_id)
            self.contact_source(node)
            return
        partner, from_referral = self._next_partner(node)
        if partner is None:
            return  # oracle found no suitable partner; wait and try again
        if partner.is_source:
            node.rounds_without_parent = 0
            self.contact_source(node)
            return
        if self.overlay.fragment_root(partner) is node:
            # Partner is in the node's own fragment (O(1) index read) —
            # useless for a merge.  A *referred* same-fragment partner is
            # a stale hint (e.g. it predates a merge); with the requeue
            # hardening on, spend the round on one fresh oracle query
            # instead of silently wasting it.
            if from_referral and self.config.requeue_stale_referrals:
                if self.probe.enabled:
                    self.probe.stale_referral(
                        node.node_id, partner.node_id, "same-fragment"
                    )
                partner = self.oracle.sample(node)
                if partner is None or self.overlay.fragment_root(partner) is node:
                    return
                self._interact(node, partner)
            return
        self._interact(node, partner)

    def _timeout_for(self, node: Node) -> int:
        """Effective source-contact timeout: backed-off when an episode is
        running (``source_retry_timeout`` of 0 means no episode)."""
        if self.config.source_backoff and node.source_retry_timeout:
            return node.source_retry_timeout
        return self.config.timeout

    def _next_partner(self, node: Node):
        """The partner for this round and whether it came from a referral:
        last referral if usable, else an oracle sample."""
        partner = node.referral
        node.referral = None
        if partner is not None and partner is not node:
            if partner.online:
                return partner, True
            # Stale referral: the hinted partner has since departed.
            # Observability only — falling back to the oracle is what the
            # protocol always did.
            if self.probe.enabled:
                self.probe.stale_referral(
                    node.node_id, partner.node_id, "offline"
                )
        return self.oracle.sample(node), False

    # ------------------------------------------------------------------
    # interaction at the source (shared by both algorithms)
    # ------------------------------------------------------------------

    def contact_source(self, node: Node) -> bool:
        """Timeout branch of Alg. 2 (steps 2-7), identical for Greedy (§3.4:
        "The interaction of a node at the server is the same as in the case
        of the greedy algorithm").

        Attach directly if the source has free capacity; otherwise displace
        the direct child with the laxest latency constraint that is laxer
        than the contacting node's (``c <- i <- 0``).

        During a :class:`~repro.faults.plan.SourceOutage` window the source
        rejects the contact outright.  Every contact is reported through
        :meth:`~repro.obs.probe.Probe.source_contact` with its outcome
        (``attach`` / ``displace`` / ``reject`` / ``outage``); failed
        contacts feed the exponential backoff when enabled.
        """
        source = self.overlay.source
        probe = self.probe
        observed = probe.enabled
        if not self._source_available():
            if observed:
                probe.source_contact(node.node_id, "outage")
            self._register_source_failure(node)
            return False
        if try_attach(self.overlay, node, source, self.edge_ok):
            if observed:
                probe.source_contact(node.node_id, "attach")
            return True
        candidates = [c for c in source.children if c.latency > node.latency]
        if candidates:
            victim = max(candidates, key=lambda c: (c.latency, -c.fanout))
            if try_displace_at_source(
                self.overlay,
                node,
                victim,
                self.edge_ok,
                allow_shed=self._shed_allowed(),
            ):
                if observed:
                    probe.source_contact(node.node_id, "displace")
                return True
        if observed:
            probe.source_contact(node.node_id, "reject")
        self._register_source_failure(node)
        return False

    def _source_available(self) -> bool:
        """Whether the source accepts direct contacts this round (always,
        unless a fault plan has an active source outage)."""
        return self.faults is None or self.faults.source_available()

    def _register_source_failure(self, node: Node) -> None:
        """Account a failed source contact; grow the node's personal retry
        timeout when the backoff hardening is enabled."""
        node.source_failures += 1
        if not self.config.source_backoff:
            return
        base = min(
            self.config.timeout * (2 ** node.source_failures),
            self.config.backoff_cap,
        )
        jitter = 0
        if self.backoff_rng is not None and self.config.backoff_jitter:
            jitter = self.backoff_rng.randint(0, self.config.backoff_jitter)
        node.source_retry_timeout = base + jitter
        if self.probe.enabled:
            self.probe.backoff(
                node.node_id, node.source_failures, node.source_retry_timeout
            )

    def _shed_allowed(self) -> bool:
        """Whether moves may discard a child of the incoming node to make
        room (Hybrid: yes; Greedy: no)."""
        return False

    # ------------------------------------------------------------------
    # to be provided by concrete algorithms
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _interact(self, node: Node, partner: Node) -> None:
        """Bilateral decision rule for ``node <-> partner`` (both consumers,
        different fragments, ``node`` parentless)."""

    @abc.abstractmethod
    def maintain(self, node: Node) -> bool:
        """Run the maintenance rule at a *parented* node; returns ``True``
        if the node discarded its parent this round."""

    def settled(self, node: Node) -> bool:
        """Whether :meth:`maintain` has nothing to do at ``node`` — it
        would return ``False`` and write no state — now *and until the
        node's parent link or chain metadata* (``Root``, ``DelayAt``)
        *next changes*.

        Both clocks leave a settled node alone: the round sweeps skip it
        (:meth:`sweep`) and the continuous engine lets it sleep until the
        chain index reports a change.  An algorithm defines the
        predicate, with the level form that keeps its
        :meth:`unsettled_column`, beside its rule
        (:mod:`repro.core.maintenance`) and installs it as this method
        in its class body.  This default, "never", has every parented
        node visited every tick.
        """
        return False

    def unsettled_column(self) -> bytearray:
        """The store's unsettled column for :meth:`settled`, bound to the
        chain index if another rule was bound since."""
        rule = self.settled.__func__
        index = self.overlay.chain_index
        if index.settled_rule is not rule:
            index.bind(rule)
        return self.overlay.store.unsettled

    def sweep(
        self,
        roster: Iterable[Node],
        now: int = 0,
        asynchrony: Optional["AsynchronyModel"] = None,
    ) -> Tuple[float, int, float, int]:
        """One round of the local rule over ``roster``, in roster order:
        every node with something to do that is still online runs
        :meth:`maintain` if parented, else takes one construction
        :meth:`step`.  A parented node has something to do unless it is
        :meth:`settled`, read off the :meth:`unsettled_column`.

        The one dispatch every round loop shares.  Each node is tested
        as the walk reaches it, on the state the round's earlier actors
        left behind — one of them may have pushed it into violation.
        With an ``asynchrony`` model, a busy parentless node sits the
        round out and a stepping one is occupied for its drawn duration;
        maintenance is local and never waits.  Returns
        ``(step_seconds, step_calls, maintain_seconds, maintain_calls)``
        from one clock-read pair per call.
        """
        # Read through the instance once per sweep, so a method replaced
        # on the instance (a timing wrapper) is the one called.
        maintain = self.maintain
        step = self.step
        unsettled = self.unsettled_column()
        perf_counter = time.perf_counter
        maintain_seconds = step_seconds = 0.0
        maintain_calls = step_calls = 0
        for node in roster:
            # ``online`` is load-bearing: a node crashed by a fault plan
            # after the roster was drawn must not act this round (pinned
            # by tests/test_faults.py).
            if node.parent is not None:
                if not unsettled[node.node_id] or not node.online:
                    continue
                t0 = perf_counter()
                maintain(node)
                maintain_seconds += perf_counter() - t0
                maintain_calls += 1
                continue
            if not node.online:
                continue
            if asynchrony is not None and not asynchrony.is_free(node, now):
                continue
            t0 = perf_counter()
            step(node)
            step_seconds += perf_counter() - t0
            step_calls += 1
            if asynchrony is not None:
                asynchrony.occupy(node, now)
        return step_seconds, step_calls, maintain_seconds, maintain_calls


def _never_settled(unsettled, level, rooted: int, delay: int) -> None:
    for node in level:
        unsettled[node.node_id] = 1


ConstructionAlgorithm.settled.level = _never_settled
