"""The reuse-biased oracle: exploit intersecting consumers across feeds.

Among delay-qualified candidates (the O3 filter), prefer — with
probability ``reuse_bias`` — partners the enquirer is *already* adjacent
to in another feed's tree.  A partnership that carries two feeds costs
one network relationship instead of two, which is the §7 "reusing part
of the LagOver for multiple sources" saving.

The biased branch draws from a *dedicated* seeded stream
(``reuse-bias/<feed>``, like the fault injector's ``faults`` stream),
never from the partner-selection stream: with ``reuse_bias=0.0`` the
oracle's selection sequence is bit-identical to a plain
:class:`~repro.oracles.base.RandomDelayOracle` on the same stream
(regression-pinned in ``tests/test_multifeed.py``).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.core.node import Node
from repro.core.tree import Overlay
from repro.oracles.base import RandomDelayOracle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.multifeed.system import MultiFeedSystem


class ReuseDelayOracle(RandomDelayOracle):
    """Oracle Random-Delay with cross-feed partnership preference."""

    name = "reuse-delay"
    figure_label = "O3R"

    def __init__(
        self,
        overlay: Overlay,
        rng: random.Random,
        system: "MultiFeedSystem",
        feed_id: str,
        reuse_bias: float = 0.8,
        bias_rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(overlay, rng)
        self.system = system
        self.feed_id = feed_id
        self.reuse_bias = reuse_bias
        # The reuse-bias coin flips come from their own seeded stream
        # (``reuse-bias/<feed>``), like :mod:`repro.faults` keeps fault
        # draws off the protocol streams: whether a familiar partner
        # happens to exist (a cross-feed, state-dependent accident) must
        # never perturb the partner-*selection* stream, or soak runs
        # would not be bit-reproducible against an unbiased twin.
        if bias_rng is None:
            bias_rng = system.streams.get(f"reuse-bias/{feed_id}")
        self.bias_rng = bias_rng
        #: How many samples were served from the cross-feed partner set.
        self.reuse_hits = 0

    def sample(self, enquirer: Node) -> Optional[Node]:
        candidates = self._candidates(enquirer)
        count = candidates.bit_count()
        if not count:
            self.misses += 1
            return None
        self.hits += 1
        # The familiar candidates, found from the few known names and
        # not by looking at every candidate; drawn from in id order, the
        # order in which a pass over the candidate list would meet them.
        familiar = []
        for name in self.system.partners_elsewhere(enquirer.name, self.feed_id):
            node = self.system.participation(name, self.feed_id)
            if node is not None and candidates >> node.node_id & 1:
                familiar.append(node.node_id)
        if familiar and self.bias_rng.random() < self.reuse_bias:
            self.reuse_hits += 1
            return self.overlay.node(self.bias_rng.choice(sorted(familiar)))
        return self._draw(candidates, count)


def reuse_oracle_factory(reuse_bias: float = 0.8):
    """An :data:`~repro.multifeed.system.OracleFactory` building
    :class:`ReuseDelayOracle` instances."""

    def factory(system, feed_id, overlay, rng):
        return ReuseDelayOracle(
            overlay, rng, system, feed_id, reuse_bias=reuse_bias
        )

    return factory
