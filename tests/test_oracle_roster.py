"""The delay roster and the indexed ``Oracle.sample`` built on it.

Three guarantees:

1. **The roster is exact.**  After any sequence of checked mutations —
   attach / detach / go_offline / go_online / add / remove with id
   reuse — ``ChainIndex.delay_roster()`` equals a
   from-scratch scan off the reference walk (hypothesis property).
2. **The draw is unchanged.**  ``sample`` over the bitset returns, RNG
   state for RNG state, what the former O(N) list scan returned.  The
   scan is written out below as the reference and run on a twin RNG.
3. **A lying roster is caught and healed** by the same paths that guard
   the chain columns: ``check_integrity()``, ``rebuild()``, and the
   ``repro.stabilize`` sanitize pass.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import NodeSpec
from repro.core.errors import TopologyError
from repro.core.index import kth_set_bit
from repro.core.tree import Overlay
from repro.multifeed import MultiFeedSystem
from repro.multifeed.reuse import ReuseDelayOracle
from repro.obs.probe import Probe
from repro.oracles.base import make_oracle
from repro.sim.churn import ChurnConfig
from repro.sim.runner import Simulation, SimulationConfig
from repro.stabilize.harness import sanitize
from repro.workloads import make


def scanned_roster(overlay: Overlay) -> dict:
    """``{delay: bitset}`` of the online consumers, off the reference walk."""
    buckets: dict = {}
    for node in overlay.consumers:
        if node.online:
            delay = overlay.walk_delay_at(node)
            buckets[delay] = buckets.get(delay, 0) | 1 << node.node_id
    return buckets


def kept_roster(overlay: Overlay) -> dict:
    roster = overlay.chain_index.delay_roster()
    return {delay: bucket for delay, bucket in enumerate(roster) if bucket}


def scan_sample(overlay, rng, enquirer, admits):
    """``Oracle.sample`` as it was before the roster: filter the whole
    online population into an id-ordered list, ``rng.choice`` from it."""
    candidates = [
        node
        for node in overlay.online_consumers
        if node is not enquirer and admits(enquirer, node)
    ]
    if not candidates:
        return None
    return rng.choice(candidates)


class TestKthSetBit:
    @given(
        positions=st.sets(st.integers(0, 3000), min_size=1, max_size=80),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_positions(self, positions, data):
        mask = sum(1 << position for position in positions)
        k = data.draw(st.integers(0, len(positions) - 1))
        assert kth_set_bit(mask, k) == sorted(positions)[k]

    def test_dense_mask_every_rank(self):
        mask = (1 << 130) - 1
        assert [kth_set_bit(mask, k) for k in range(130)] == list(range(130))


class TestRosterTracksMutations:
    @given(seed=st.integers(0, 10_000), steps=st.integers(10, 70))
    @settings(max_examples=40, deadline=None)
    def test_roster_equals_scan_after_every_step(self, seed, steps):
        rng = random.Random(seed)
        overlay = Overlay(source_fanout=rng.randint(1, 3))
        for _ in range(rng.randint(2, 8)):
            overlay.add_consumer(NodeSpec(latency=5, fanout=rng.randint(0, 3)))
        assert kept_roster(overlay) == scanned_roster(overlay)  # first read
        for _ in range(steps):
            op = rng.choice(
                ("attach", "attach", "attach", "detach", "churn", "add", "remove")
            )
            consumers = overlay.consumers
            if op == "add" or not consumers:
                overlay.add_consumer(
                    NodeSpec(latency=5, fanout=rng.randint(0, 3))
                )
            elif op == "attach":
                child = rng.choice(consumers)
                parent = rng.choice(consumers + [overlay.source])
                if (
                    child.online
                    and parent.online
                    and child.parent is None
                    and parent is not child
                    and parent.free_fanout > 0
                    and not overlay.is_descendant(parent, child)
                ):
                    overlay.attach(child, parent)
            elif op == "detach":
                parented = [n for n in consumers if n.parent is not None]
                if parented:
                    overlay.detach(rng.choice(parented))
            elif op == "churn":
                node = rng.choice(consumers)
                if node.online:
                    overlay.go_offline(node, graceful=rng.random() < 0.5)
                else:
                    overlay.go_online(node)
            else:  # remove for good; the store recycles the id
                node = rng.choice(consumers)
                if node.online:
                    overlay.go_offline(node)
                overlay.remove_consumer(node)
            assert kept_roster(overlay) == scanned_roster(overlay)
            overlay.check_integrity()

    @pytest.mark.parametrize("realization", ("sharded", "dht"))
    def test_directory_realizations_never_build_it(self, realization):
        sim = Simulation(
            make("Rand", size=60, seed=2),
            SimulationConfig(
                algorithm="hybrid",
                oracle_realization=realization,
                churn=ChurnConfig(),
                max_rounds=25,
                stop_at_convergence=False,
                seed=2,
            ),
        )
        sim.run()
        assert sim.overlay.chain_index._roster is None
        sim.overlay.check_integrity()


def churned_simulation(oracle: str, seed: int = 5) -> Simulation:
    return Simulation(
        make("Rand", size=80, seed=seed),
        SimulationConfig(
            algorithm="hybrid",
            oracle=oracle,
            churn=ChurnConfig(leave_probability=0.05, rejoin_probability=0.2),
            max_rounds=40,
            stop_at_convergence=False,
            seed=seed,
        ),
    )


class TestSampleDrawForDraw:
    @pytest.mark.parametrize("name", ("random", "random-delay"))
    def test_indexed_sample_equals_list_scan(self, name):
        """Every node of the overlay — the source and offline consumers
        included — enquires each round of a churned run; the indexed
        oracle and the scan, on twin RNGs, must agree on every answer
        (so also on every miss, and on every draw in between)."""
        sim = churned_simulation(name)
        overlay = sim.overlay
        indexed = make_oracle(name, overlay, random.Random(99))
        twin = random.Random(99)
        answers = misses = offline_enquirers = 0
        for _ in range(40):
            sim.run_round()
            for enquirer in [overlay.source] + overlay.consumers:
                expected = scan_sample(overlay, twin, enquirer, indexed.admits)
                assert indexed.sample(enquirer) is expected
                answers += 1
                misses += expected is None
                offline_enquirers += not enquirer.online
        assert indexed.rng.random() == twin.random()  # still in lockstep
        assert (indexed.hits, indexed.misses) == (answers - misses, misses)
        assert offline_enquirers > 0
        if name == "random-delay":
            # The source's own constraint is 1: nobody has delay < 1.
            assert indexed.sample(overlay.source) is None
            assert misses >= 40

    def test_lone_consumer_misses(self):
        overlay = Overlay(source_fanout=1)
        only = overlay.add_consumer(NodeSpec(latency=3, fanout=1))
        for name in ("random", "random-delay"):
            oracle = make_oracle(name, overlay, random.Random(1))
            assert oracle.sample(only) is None
            assert (oracle.hits, oracle.misses) == (0, 1)
        # ...while the source, which is nobody's candidate, can be handed it.
        assert make_oracle("random", overlay, random.Random(1)).sample(
            overlay.source
        ) is only

    def test_probe_sees_the_candidate_count(self):
        class Recorder(Probe):
            def __init__(self):
                self.queries = []

            def oracle_query(self, enquirer, name, size, partner):
                self.queries.append((enquirer, name, size, partner))

            def oracle_miss(self, enquirer, name):
                self.queries.append((enquirer, name, 0, None))

        overlay = Overlay(source_fanout=2)
        nodes = [overlay.add_consumer(NodeSpec(latency=4, fanout=2)) for _ in range(5)]
        overlay.go_offline(nodes[3])
        overlay.probe = Recorder()
        partner = make_oracle("random", overlay, random.Random(3)).sample(nodes[0])
        assert overlay.probe.queries == [
            (nodes[0].node_id, "random", 3, partner.node_id)
        ]

    @pytest.mark.parametrize("bias", (0.0, 0.8))
    def test_reuse_oracle_equals_list_scan(self, bias):
        system = MultiFeedSystem(
            ["news", "sport", "tech"], consumer_count=40, seed=8
        )
        twins = {}
        for feed in system.feed_ids:
            indexed = ReuseDelayOracle(
                system.overlays[feed],
                random.Random(21),
                system,
                feed,
                reuse_bias=bias,
                bias_rng=random.Random(22),
            )
            twins[feed] = (indexed, random.Random(21), random.Random(22))
        shaker = random.Random(4)
        reuse_hits = misses = 0
        for _ in range(30):
            system.run_round()
            # Keep some participations offline so offline enquirers and
            # stale known-partner names both occur.
            for name in shaker.sample(system.consumers, 4):
                for feed in system.subscriptions[name]:
                    members = system.members([feed])
                    if not members.take_down(name):
                        members.bring_up(name)
            for feed, (indexed, rng, bias_rng) in twins.items():
                overlay = system.overlays[feed]
                for enquirer in [overlay.source] + overlay.consumers:
                    # The parent's ReuseDelayOracle.sample, written out.
                    candidates = [
                        node
                        for node in overlay.online_consumers
                        if node is not enquirer
                        and overlay.delay_at(node) < enquirer.latency
                    ]
                    expected = None
                    if candidates:
                        known = system.partners_elsewhere(enquirer.name, feed)
                        familiar = [n for n in candidates if n.name in known]
                        if familiar and bias_rng.random() < bias:
                            reuse_hits += 1
                            expected = bias_rng.choice(familiar)
                        else:
                            expected = rng.choice(candidates)
                    misses += expected is None
                    assert indexed.sample(enquirer) is expected
        for indexed, rng, bias_rng in twins.values():
            assert indexed.rng.random() == rng.random()
            assert indexed.bias_rng.random() == bias_rng.random()
        assert sum(t[0].reuse_hits for t in twins.values()) == reuse_hits
        assert (reuse_hits > 0) == (bias > 0)
        assert misses > 0


class TestRosterIntegrity:
    def test_corruption_is_caught_and_healed(self):
        overlay = Overlay(source_fanout=2)
        nodes = [
            overlay.add_consumer(NodeSpec(latency=4, fanout=2)) for _ in range(6)
        ]
        overlay.attach(nodes[0], overlay.source)
        overlay.attach(nodes[1], nodes[0])
        overlay.go_offline(nodes[5])
        oracle = make_oracle("random-delay", overlay, random.Random(0))
        assert oracle.sample(nodes[2]) is not None  # first read builds it
        overlay.check_integrity()

        def corrupt():
            # Claim the offline node is online at delay 1, and move the
            # node at delay 2 to a bucket past the end.
            roster = overlay.chain_index.delay_roster()
            roster[1] |= 1 << nodes[5].node_id
            roster[2] ^= 1 << nodes[1].node_id
            roster.extend([0, 1 << nodes[1].node_id])

        corrupt()
        with pytest.raises(TopologyError, match="delay roster"):
            overlay.check_integrity()
        overlay.chain_index.rebuild()
        overlay.check_integrity()
        assert kept_roster(overlay) == scanned_roster(overlay)

        corrupt()
        sanitize(overlay)  # the repro.stabilize local reset
        overlay.check_integrity()
        assert kept_roster(overlay) == scanned_roster(overlay)
