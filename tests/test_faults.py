"""Tests for the fault-injection subsystem (:mod:`repro.faults`).

Covers the plan DSL and validation, the injector's crash/leave/rejoin
semantics, the fault-gated oracle (outage, stale view, partition), the
protocol hardening (source-contact backoff, stale-referral requeue),
the recovery metrics — and the two guarantees everything else leans on:

* golden-seed guard: a run with ``NullFaultPlan`` installed is
  bit-identical to a run with ``faults=None``, for greedy/hybrid across
  all four paper oracles, churn on;
* chaos acceptance: a 20% simultaneous crash into a converged overlay
  re-converges within budget for both algorithms, with a finite
  ``time_to_recover`` and ``check_integrity()`` holding every round of
  the recovery.
"""

import dataclasses
import random
from collections import deque

import pytest

from repro.cli import main
from repro.multifeed.soak import ServiceSoak, SoakConfig
from repro.multipath import MultipathSystem
from repro.core.errors import ConfigurationError
from repro.core.greedy import GreedyConstruction
from repro.core.protocol import ProtocolConfig
from repro.core.tree import Overlay
from repro.faults import (
    CrashNodes,
    FaultGatedOracle,
    FaultInjector,
    FaultPlan,
    FaultState,
    MassCrash,
    Members,
    NullFaultPlan,
    OracleOutage,
    SourceOutage,
    StaleOracleView,
    ViewPartition,
    parse_fault_plan,
)
from repro.obs import RecordingProbe
from repro.oracles.base import RandomDelayOracle
from repro.oracles.sharded import ShardedOracle
from repro.sim.churn import ChurnConfig
from repro.sim.rng import StreamFactory
from repro.sim.runner import Simulation, SimulationConfig, run_simulation
from repro.spec import RunSpec
from repro.workloads import make

from tests.conftest import load_tool, spec

#: The golden-ledger script; its quick rows define the thundering herd
#: and the layered chaos plan asserted below.
ledger_tool = load_tool("golden_ledger")

#: The four paper oracles (O1, O2a, O2b, O3).
PAPER_ORACLES = (
    "random",
    "random-capacity",
    "random-delay-capacity",
    "random-delay",
)


class _MissOracle:
    """An oracle that never finds a partner (and counts the attempts)."""

    name = "miss"

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.calls = 0

    def sample(self, enquirer):
        self.calls += 1
        self.misses += 1
        return None

    def on_round(self, now):
        pass


class _FixedOracle(_MissOracle):
    """An oracle that always answers with one prepared node."""

    def __init__(self, answer):
        super().__init__()
        self.answer = answer

    def sample(self, enquirer):
        self.calls += 1
        self.hits += 1
        return self.answer


# ----------------------------------------------------------------------
# plan DSL and validation
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_all_spec_types(self):
        plan = parse_fault_plan(
            "crash@60:0.2:rejoin=15, leave@70:0.1, source-outage@80:10, "
            "oracle-outage@90:5, stale-view@100:10:5, partition@110:20:3"
        )
        faults = [s.fault for s in plan.specs]
        assert faults == [
            "mass-crash",
            "mass-crash",
            "source-outage",
            "oracle-outage",
            "stale-view",
            "partition",
        ]
        crash, leave = plan.specs[0], plan.specs[1]
        assert crash == MassCrash(round=60, fraction=0.2, rejoin_after=15)
        assert leave.graceful and leave.fraction == 0.1
        assert plan.specs[5] == ViewPartition(round=110, duration=20, sides=3)
        assert plan.max_staleness() == 5

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "warp-drive@5:1",
            "crash",
            "crash@0:0.2",
            "crash@60:1.5",
            "crash@60:0.2:refit=3",
            "stale-view@10:5:0",
            "partition@10:5:1",
            "source-outage@10:0",
        ],
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ConfigurationError):
            parse_fault_plan(text)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            MassCrash(round=0)
        with pytest.raises(ConfigurationError):
            MassCrash(round=5, fraction=0.0)
        with pytest.raises(ConfigurationError):
            MassCrash(round=5, rejoin_after=0)
        with pytest.raises(ConfigurationError):
            CrashNodes(round=5)  # needs at least one node id
        with pytest.raises(ConfigurationError):
            StaleOracleView(round=5, staleness=0)
        with pytest.raises(ConfigurationError):
            ViewPartition(round=5, sides=1)
        with pytest.raises(ConfigurationError):
            FaultPlan(specs=("not a spec",))

    def test_plans_are_values(self):
        a = FaultPlan.of(MassCrash(round=60), SourceOutage(round=80))
        b = FaultPlan.of(MassCrash(round=60), SourceOutage(round=80))
        assert a == b and hash(a) == hash(b)
        assert not a.empty
        assert NullFaultPlan().empty
        assert a.max_staleness() == 0

    def test_config_rejects_non_plan(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(faults="crash@60:0.2")


class TestFaultState:
    def test_windows_are_exclusive_end(self):
        state = FaultState()
        assert state.source_available() and state.oracle_available()
        assert not state.any_active()
        state.source_down_until = 7
        for now in (3, 6):
            state.now = now
            assert not state.source_available()
            assert state.any_active()
        state.now = 7
        assert state.source_available()

    def test_partition_sides(self):
        state = FaultState()
        state.side_of = {"a": 0, "b": 1, "c": 0}
        assert state.same_side("a", "c")
        assert not state.same_side("a", "b")
        assert state.same_side("a", "zz")  # unknown peers default to side 0


# ----------------------------------------------------------------------
# crash vs graceful leave
# ----------------------------------------------------------------------


class TestCrashVersusLeave:
    def _chain(self):
        overlay = Overlay(source_fanout=2)
        a = overlay.add_consumer(spec(2, 2), "a")
        b = overlay.add_consumer(spec(3, 2), "b")
        overlay.attach(a, overlay.source)
        overlay.attach(b, a)
        return overlay, a, b

    def test_graceful_leave_refers_orphan_to_grandparent(self):
        overlay, a, b = self._chain()
        probe = RecordingProbe()
        overlay.probe = probe
        overlay.go_offline(a, graceful=True, reason="leave")
        assert b.referral is overlay.source
        assert [e.reason for e in probe.events_of("detach")] == [
            "leave",
            "leave-orphan",
        ]
        assert [e.origin for e in probe.events_of("referral")] == ["leave"]

    def test_crash_leaves_no_referral(self):
        overlay, a, b = self._chain()
        probe = RecordingProbe()
        overlay.probe = probe
        overlay.go_offline(a, graceful=False, reason="crash")
        assert b.referral is None
        assert not probe.events_of("referral")
        assert [e.reason for e in probe.events_of("detach")] == [
            "crash",
            "crash-orphan",
        ]

    def test_churn_departures_keep_their_exact_semantics(self):
        """Default go_offline is the graceful churn departure of before."""
        overlay, a, b = self._chain()
        probe = RecordingProbe()
        overlay.probe = probe
        overlay.go_offline(a)
        assert b.referral is overlay.source
        assert [e.reason for e in probe.events_of("detach")] == [
            "churn",
            "churn-orphan",
        ]
        assert [e.origin for e in probe.events_of("referral")] == ["churn"]


class TestFaultInjector:
    def _population(self, n=20):
        overlay = Overlay(source_fanout=3)
        for i in range(n):
            overlay.add_consumer(spec(4, 2), f"n{i}")
        return overlay

    def test_mass_crash_takes_the_right_fraction(self):
        overlay = self._population(20)
        plan = FaultPlan.of(MassCrash(round=1, fraction=0.2))
        injector = FaultInjector(
            Members.of_overlay(overlay), plan, random.Random(3)
        )
        injector.inject(1)
        assert len(overlay.online_consumers) == 16
        assert injector.crashes == 4 and injector.injected == 1

    def test_crash_nodes_is_deterministic_and_skips_offline(self):
        overlay = self._population(5)
        overlay.go_offline(overlay.node(2))
        plan = FaultPlan.of(CrashNodes(round=1, node_ids=(1, 2, 3)))
        rng = random.Random(3)
        before = rng.getstate()
        injector = FaultInjector(Members.of_overlay(overlay), plan, rng)
        injector.inject(1)
        assert rng.getstate() == before  # no RNG consumed selecting victims
        assert not overlay.node(1).online and not overlay.node(3).online
        assert injector.crashes == 2

    def test_rejoin_burst_revives_the_cohort(self):
        overlay = self._population(10)
        probe = RecordingProbe()
        overlay.probe = probe
        plan = FaultPlan.of(CrashNodes(round=2, node_ids=(1, 2, 3), rejoin_after=3))
        injector = FaultInjector(
            Members.of_overlay(overlay), plan, random.Random(3)
        )
        for now in range(1, 6):
            injector.inject(now)
            if 2 <= now < 5:
                assert not overlay.node(1).online
        assert all(overlay.node(i).online for i in (1, 2, 3))
        assert injector.rejoins == 3
        faults = [e.fault for e in probe.events_of("fault-injected")]
        assert faults == ["crash-nodes", "mass-rejoin"]

    def test_rejoin_skips_peers_churn_already_revived(self):
        overlay = self._population(5)
        plan = FaultPlan.of(CrashNodes(round=1, node_ids=(1, 2), rejoin_after=2))
        injector = FaultInjector(
            Members.of_overlay(overlay), plan, random.Random(3)
        )
        injector.inject(1)
        overlay.go_online(overlay.node(1))  # churn beat the burst to it
        injector.inject(2)
        injector.inject(3)
        assert overlay.node(2).online
        assert injector.rejoins == 1  # only node 2 needed reviving

    def test_overlapping_windows_extend_not_truncate(self):
        overlay = self._population(3)
        plan = FaultPlan.of(
            SourceOutage(round=1, duration=10), SourceOutage(round=3, duration=2)
        )
        injector = FaultInjector(
            Members.of_overlay(overlay), plan, random.Random(3)
        )
        injector.inject(1)
        injector.inject(3)  # shorter overlapping window must not shrink it
        assert injector.state.source_down_until == 11


# ----------------------------------------------------------------------
# one injector, three configurations
# ----------------------------------------------------------------------


#: Rounds each configuration runs; specs fire inside them.
ROUNDS = 12


@dataclasses.dataclass
class _FaultedRun:
    """One configuration's run as the fault machinery sees it."""

    injector: FaultInjector
    overlays: list
    oracles: list
    algorithms: list


def _single(plan, probe):
    config = SimulationConfig(
        seed=2, faults=plan, max_rounds=ROUNDS, stop_at_convergence=False
    )
    simulation = Simulation(make("Rand", size=20, seed=2), config, probe=probe)
    simulation.run()
    return _FaultedRun(
        simulation.injector,
        [simulation.overlay],
        [simulation.oracle],
        [simulation.algorithm],
    )


def _paths(plan, probe):
    system = MultipathSystem(
        make("Rand", size=20, seed=2), paths=2, seed=2, faults=plan, probe=probe
    )
    system.run(max_rounds=ROUNDS, stop_at_convergence=False)
    return _FaultedRun(
        system.injector, system.overlays, system.oracles, system.algorithms
    )


def _feeds(plan, probe):
    config = SoakConfig(
        feed_ids=("a", "b", "c"),
        consumer_count=20,
        seed=2,
        rounds=ROUNDS,
        warmup_rounds=ROUNDS - 2,
        faults=plan,
    )
    soak = ServiceSoak(config, probe)
    soak.run()
    system = soak.system
    return _FaultedRun(
        soak.injector,
        list(system.overlays.values()),
        list(system.oracles.values()),
        list(system.algorithms.values()),
    )


class TestOneInjector:
    """The one :class:`FaultInjector` behind a single overlay, two path
    overlays and three feed overlays: only the :class:`Members` view
    differs."""

    @pytest.fixture(
        params=[_single, _paths, _feeds], ids=["single", "2-path", "3-feed"]
    )
    def build(self, request):
        def build(*specs, plan=None):
            probe = RecordingProbe()
            run = request.param(plan or FaultPlan.of(*specs), probe)
            return run, probe

        return build

    def test_null_plan_draws_and_fires_nothing(self, build):
        run, _ = build(plan=NullFaultPlan())
        untouched = StreamFactory(2).get("faults").getstate()
        assert run.injector.rng.getstate() == untouched
        assert run.injector.injected == 0 and run.injector.fault_rounds == []

    def test_crash_takes_member_down_in_every_overlay(self, build):
        run, _ = build(MassCrash(round=ROUNDS, fraction=0.3))
        members = run.injector.members
        victims = [name for name in members.names if not members.is_online(name)]
        assert len(victims) == round(len(members.names) * 0.3)
        assert run.injector.crashes == len(victims)
        assert members.overlays == run.overlays
        for name in victims:
            nodes = [table[name] for table in members.tables if name in table]
            assert nodes and all(not node.online for node in nodes)

    def test_rejoin_burst_revives_and_counts_members(self, build):
        run, probe = build(MassCrash(round=3, fraction=0.3, rejoin_after=4))
        members = run.injector.members
        assert all(members.is_online(name) for name in members.names)
        for overlay in run.overlays:
            assert all(node.online for node in overlay.consumers)
        crashed = round(len(members.names) * 0.3)
        assert run.injector.crashes == run.injector.rejoins == crashed
        affected = {e.fault: e.affected for e in probe.events_of("fault-injected")}
        assert affected == {"mass-crash": crashed, "mass-rejoin": crashed}
        assert run.injector.fault_rounds == [3, 7]

    def test_one_fault_state_serves_every_overlay(self, build):
        run, _ = build(SourceOutage(round=ROUNDS, duration=5))
        state = run.injector.state
        assert len(run.oracles) == len(run.algorithms) == len(run.overlays)
        for oracle, algorithm in zip(run.oracles, run.algorithms):
            assert isinstance(oracle, FaultGatedOracle)
            assert oracle.state is state
            assert algorithm.oracle is oracle and algorithm.faults is state
        assert not state.source_available()

    def test_partition_gives_a_member_one_side_everywhere(self, build):
        run, _ = build(ViewPartition(round=ROUNDS, duration=5, sides=2))
        state = run.injector.state
        assert state.partition_active()
        assert set(state.side_of) == set(run.injector.members.names)
        answers = 0
        for overlay, oracle in zip(run.overlays, run.oracles):
            for enquirer in overlay.online_consumers:
                assert enquirer.name in state.side_of
                partner = oracle.sample(enquirer)
                if partner is not None:
                    answers += 1
                    assert state.same_side(enquirer.name, partner.name)
        assert answers > 0

    @pytest.mark.parametrize("node_id", [0, 21])
    def test_crash_nodes_rejects_an_id_naming_no_consumer(self, build, node_id):
        with pytest.raises(ConfigurationError, match=f"id {node_id} "):
            build(CrashNodes(round=1, node_ids=(1, node_id)))

    def test_crash_nodes_id_is_one_based_position(self, build):
        run, _ = build(CrashNodes(round=ROUNDS, node_ids=(1, 20)))
        members = run.injector.members
        down = [name for name in members.names if not members.is_online(name)]
        assert down == [members.names[0], members.names[19]]


# ----------------------------------------------------------------------
# fault-gated oracle
# ----------------------------------------------------------------------


class TestFaultGatedOracle:
    def _setup(self, n=6, plan=FaultPlan()):
        overlay = Overlay(source_fanout=2)
        nodes = [overlay.add_consumer(spec(4, 2), f"n{i}") for i in range(n)]
        inner = RandomDelayOracle(overlay, random.Random(3))
        state = FaultState()
        gated = FaultGatedOracle(
            inner, overlay, state, random.Random(7), plan
        )
        return overlay, nodes, inner, state, gated

    def test_delegates_verbatim_when_no_fault_active(self):
        overlay, nodes, inner, state, gated = self._setup()
        partner = gated.sample(nodes[0])
        assert partner is not None and inner.hits == 1
        assert gated.hits == 1 and gated.name == inner.name

    def test_outage_refuses_every_query(self):
        overlay, nodes, inner, state, gated = self._setup()
        state.now, state.oracle_down_until = 5, 10
        assert gated.sample(nodes[0]) is None
        assert inner.misses == 1 and inner.hits == 0

    def test_stale_view_serves_a_departed_peer(self):
        overlay, nodes, inner, state, gated = self._setup(
            plan=parse_fault_plan("stale-view@4:6:3")
        )
        victim = nodes[1]
        for extra in nodes[2:]:
            overlay.go_offline(extra)  # snapshot will hold only n0 and n1
        for now in range(1, 4):
            state.now = now
            gated.on_round(now)
        overlay.go_offline(victim)
        state.now, state.stale_until, state.staleness = 4, 10, 3
        answer = gated.sample(nodes[0])
        assert answer is victim  # the stale view still lists it
        assert not answer.online
        assert gated.stale_answers == 1
        assert inner.hits == 1  # accounting stays on the inner oracle

    def test_stale_view_applies_the_recorded_filter(self):
        overlay, nodes, inner, state, gated = self._setup(
            plan=parse_fault_plan("stale-view@2:8:1")
        )
        # Make every candidate's recorded delay violate the enquirer's
        # constraint: chain them deep under the source.
        tight = overlay.add_consumer(spec(1, 2), "tight")
        overlay.attach(nodes[0], overlay.source)
        for child, parent in zip(nodes[1:], nodes[:-1]):
            overlay.attach(child, parent)
        state.now = 1
        gated.on_round(1)
        state.now, state.stale_until, state.staleness = 2, 10, 1
        # tight's l=1 admits only delay-0 candidates -> none pass.
        assert gated.sample(tight) is None
        assert inner.misses == 1

    def test_partition_restricts_to_same_side(self):
        overlay, nodes, inner, state, gated = self._setup()
        state.now, state.partition_until = 5, 10
        state.side_of = {n.name: i % 2 for i, n in enumerate(nodes)}
        for _ in range(12):
            partner = gated.sample(nodes[0])
            assert partner is not None
            assert state.same_side(nodes[0].name, partner.name)

    def test_partition_keeps_inner_filter_semantics(self):
        overlay, nodes, inner, state, gated = self._setup()
        # A deep candidate on the enquirer's side must still be filtered
        # out by the inner random-delay rule.
        tight = overlay.add_consumer(spec(1, 2), "tight")
        state.now, state.partition_until = 5, 10
        state.side_of = {n.name: 0 for n in overlay.consumers}
        for node in nodes:
            assert overlay.delay_at(node) >= tight.latency
        assert gated.sample(tight) is None  # nobody passes delay < 1


class TestStaleViewSnapshots:
    """A stale window can read only rounds ``[w - H, w + d)``: the gated
    oracle snapshots those and answers as a recorder that snapshots
    every round (the reference, kept here) does."""

    def _run(self, every_round):
        config = SimulationConfig(
            seed=1,
            max_rounds=150,
            stop_at_convergence=False,
            churn=ChurnConfig(),
            faults=parse_fault_plan("stale-view@145:3:2"),
        )
        simulation = Simulation(make("Rand", size=2000, seed=1), config)
        gated, overlay = simulation.oracle, simulation.overlay
        recorded, answers = [], []

        class Recorded(deque):
            def append(self, snapshot):
                recorded.append(snapshot[0])
                super().append(snapshot)

        gated._snapshots = Recorded(maxlen=gated._snapshots.maxlen)
        sample = gated.sample

        def answer(enquirer):
            partner = sample(enquirer)
            answers.append(
                (simulation.now, enquirer.node_id, partner and partner.node_id)
            )
            return partner

        def every_round_on_round(now):
            gated.inner.on_round(now)
            gated._snapshots.append(
                (
                    now,
                    {
                        node.node_id: (
                            node.online,
                            overlay.is_rooted(node),
                            overlay.delay_at(node),
                            node.free_fanout,
                        )
                        for node in overlay.consumers
                    },
                )
            )

        gated.sample = answer
        if every_round:
            gated.on_round = every_round_on_round
        result = simulation.run()
        return recorded, answers, gated.stale_answers, result

    def test_plan_names_the_rounds_a_window_reads(self):
        plan = parse_fault_plan("stale-view@145:3:2, stale-view@2:2:1")
        # H = 2: [143, 148) and [0, 4) clipped to round 1.
        assert plan.snapshot_rounds() == {1, 2, 3, 143, 144, 145, 146, 147}
        assert parse_fault_plan("crash@5:0.2").snapshot_rounds() == set()

    def test_only_the_rounds_a_window_reads(self):
        recorded, *outcome = self._run(every_round=False)
        assert recorded == [143, 144, 145, 146, 147]
        reference, *reference_outcome = self._run(every_round=True)
        assert reference == list(range(1, 151))
        assert outcome[1] > 0  # the window served stale answers
        assert outcome == reference_outcome


# ----------------------------------------------------------------------
# fault gating × the sharded realization
# ----------------------------------------------------------------------


class TestShardedFaultGating:
    """Regression: fault windows must gate the *sharded* realization too.

    The gate composes structurally (the runner wraps whatever
    ``realize_oracle`` returns), but the sharded oracle is the only one
    that answers from batched directory records — these tests pin that
    outage, stale-view, and partition semantics survive the indirection:
    the stale path must read ``ShardedOracle.filter_mode`` (the name
    ``sharded-delay`` is not in the name→filter table), and the
    partition path must fall back to :meth:`ShardedOracle.admits`, the
    live-value filter that bypasses the batches.
    """

    def _setup(self, n=12, plan=FaultPlan(), rounds=3):
        overlay = Overlay(source_fanout=2)
        nodes = [overlay.add_consumer(spec(6, 2), f"n{i}") for i in range(n)]
        inner = ShardedOracle(overlay, random.Random(3), filter_mode="delay")
        state = FaultState()
        gated = FaultGatedOracle(
            inner, overlay, state, random.Random(7), plan
        )
        for now in range(1, rounds + 1):
            state.now = now
            gated.on_round(now)  # registers members and draws batches
        return overlay, nodes, inner, state, gated

    def test_batched_serving_without_faults(self):
        overlay, nodes, inner, state, gated = self._setup()
        partner = gated.sample(nodes[0])
        assert partner is not None and inner.hits == 1
        assert gated.name == inner.name == "sharded-delay"

    def test_outage_refuses_sharded_queries(self):
        overlay, nodes, inner, state, gated = self._setup()
        state.now, state.oracle_down_until = 5, 10
        assert gated.sample(nodes[0]) is None
        assert inner.misses == 1 and inner.hits == 0

    def test_batched_serving_resumes_after_outage(self):
        overlay, nodes, inner, state, gated = self._setup()
        state.now, state.oracle_down_until = 5, 10
        assert gated.sample(nodes[0]) is None
        state.now = 10  # the window is half-open: down rounds are 5..9
        assert gated.sample(nodes[0]) is not None
        assert inner.hits == 1 and inner.misses == 1

    def test_stale_view_serves_a_departed_peer(self):
        overlay, nodes, inner, state, gated = self._setup(
            plan=parse_fault_plan("stale-view@4:6:3"), rounds=0
        )
        victim = nodes[1]
        for extra in nodes[2:]:
            overlay.go_offline(extra)  # snapshot will hold only n0 and n1
        for now in range(1, 4):
            state.now = now
            gated.on_round(now)
        overlay.go_offline(victim)
        state.now, state.stale_until, state.staleness = 4, 10, 3
        answer = gated.sample(nodes[0])
        assert answer is victim  # the stale view still lists it
        assert not answer.online
        assert gated.stale_answers == 1

    def test_stale_view_reads_the_sharded_filter_mode(self):
        overlay, nodes, inner, state, gated = self._setup(
            plan=parse_fault_plan("stale-view@2:8:1"), rounds=0
        )
        # Chain everyone so every recorded delay violates tight's l=1.
        tight = overlay.add_consumer(spec(1, 2), "tight")
        overlay.attach(nodes[0], overlay.source)
        for child, parent in zip(nodes[1:], nodes[:-1]):
            overlay.attach(child, parent)
        state.now = 1
        gated.on_round(1)
        state.now, state.stale_until, state.staleness = 2, 10, 1
        # With filter_mode honored nobody passes delay < 1; if the gate
        # fell back to the name table it would serve unfiltered answers.
        assert gated.sample(tight) is None
        assert inner.misses == 1 and gated.stale_answers == 0

    def test_partition_restricts_to_same_side_via_live_admits(self):
        overlay, nodes, inner, state, gated = self._setup()
        state.now, state.partition_until = 5, 10
        state.side_of = {n.name: i % 2 for i, n in enumerate(nodes)}
        for _ in range(12):
            partner = gated.sample(nodes[0])
            assert partner is not None
            assert state.same_side(nodes[0].name, partner.name)
            assert inner.admits(nodes[0], partner)

    def test_end_to_end_sharded_run_under_fault_plan(self):
        plan = parse_fault_plan("oracle-outage@40:10,stale-view@80:10:5")
        config = SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            oracle_realization="sharded",
            seed=11,
            max_rounds=600,
            stop_at_convergence=False,
            faults=plan,
        )
        simulation = Simulation(make("Rand", size=24, seed=11), config)
        assert isinstance(simulation.oracle, FaultGatedOracle)
        assert simulation.oracle.inner.realization == "sharded"
        # Sized for the stale spec: rounds 80 - 5 .. 80 + 10 - 1.
        assert simulation.oracle.snapshot_rounds == set(range(75, 90))
        result = simulation.run()
        assert result.fault_events == 2
        assert simulation.injector.injected == 2
        simulation.overlay.check_integrity()
        assert result.converged


# ----------------------------------------------------------------------
# protocol hardening: source backoff
# ----------------------------------------------------------------------


class TestSourceBackoff:
    def _blocked(self, **protocol_kwargs):
        """A source with no free slot and nobody displaceable."""
        overlay = Overlay(source_fanout=1)
        blocker = overlay.add_consumer(spec(1, 2), "blocker")
        overlay.attach(blocker, overlay.source)
        node = overlay.add_consumer(spec(1, 2), "n")
        config = ProtocolConfig(**protocol_kwargs)
        algorithm = GreedyConstruction(overlay, _MissOracle(), config)
        return overlay, node, algorithm

    def test_retry_timeout_doubles_and_caps(self):
        overlay, node, algorithm = self._blocked(
            source_backoff=True, backoff_jitter=0, backoff_cap=32
        )
        delays = []
        for _ in range(5):
            assert not algorithm.contact_source(node)
            delays.append(node.source_retry_timeout)
        assert delays == [8, 16, 32, 32, 32]  # timeout=4, doubling, capped

    def test_jitter_is_bounded_and_seeded(self):
        overlay, node, algorithm = self._blocked(
            source_backoff=True, backoff_jitter=3
        )
        algorithm.backoff_rng = random.Random(5)
        assert not algorithm.contact_source(node)
        assert 8 <= node.source_retry_timeout <= 11
        replay, node2, algorithm2 = self._blocked(
            source_backoff=True, backoff_jitter=3
        )
        algorithm2.backoff_rng = random.Random(5)
        algorithm2.contact_source(node2)
        assert node2.source_retry_timeout == node.source_retry_timeout

    def test_successful_attach_resets_the_episode(self):
        overlay, node, algorithm = self._blocked(
            source_backoff=True, backoff_jitter=0
        )
        for _ in range(3):
            algorithm.contact_source(node)
        assert node.source_failures == 3 and node.source_retry_timeout > 0
        blocker = overlay.node(1)
        overlay.detach(blocker, reason="detach")  # free the slot
        assert algorithm.contact_source(node)
        assert node.source_failures == 0 and node.source_retry_timeout == 0

    def test_backed_off_node_contacts_source_less(self):
        """The A/B the soak harness runs at scale, in miniature."""
        contacts = {}
        for backoff in (False, True):
            overlay, node, algorithm = self._blocked(
                source_backoff=backoff, backoff_jitter=0
            )
            probe = RecordingProbe()
            overlay.probe = probe
            for _ in range(60):
                algorithm.step(node)
            contacts[backoff] = len(probe.events_of("source-contact"))
        assert contacts[True] < contacts[False]
        assert contacts[False] == 12  # every timeout+1 = 5 rounds

    def test_backoff_sheds_the_thundering_herd(self):
        """The A/B at scale: 40 % of N=120 crash and rejoin as one burst
        inside a 40-round source outage.  The hardened arm re-contacts
        the source less and still converges within the slack."""
        baseline = ledger_tool.thundering_herd(0, backoff=False)
        hardened = ledger_tool.thundering_herd(0, backoff=True)
        assert hardened["repeat_contacts"] < baseline["repeat_contacts"]
        assert baseline["converged_round"] is not None
        slack = max(5, baseline["converged_round"] // 4)
        assert hardened["converged_round"] is not None
        assert hardened["converged_round"] <= baseline["converged_round"] + slack

    def test_off_by_default_and_behavior_neutral(self):
        overlay, node, algorithm = self._blocked()
        assert not algorithm.config.source_backoff
        for _ in range(3):
            algorithm.contact_source(node)
        # Failures are counted (observability) but never consulted.
        assert node.source_failures == 3
        assert node.source_retry_timeout == 0
        assert algorithm._timeout_for(node) == algorithm.config.timeout

    def test_backoff_cap_must_cover_timeout(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(timeout=10, backoff_cap=5)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(backoff_jitter=-1)

    def test_source_outage_registers_as_failure(self):
        overlay, node, algorithm = self._blocked(
            source_backoff=True, backoff_jitter=0
        )
        probe = RecordingProbe()
        overlay.probe = probe
        state = FaultState()
        state.now, state.source_down_until = 1, 5
        algorithm.faults = state
        assert not algorithm.contact_source(node)
        assert [e.outcome for e in probe.events_of("source-contact")] == ["outage"]
        assert node.source_retry_timeout == 8
        state.now = 5  # window over; slot still blocked -> plain reject
        assert not algorithm.contact_source(node)
        assert probe.events_of("source-contact")[-1].outcome == "reject"


# ----------------------------------------------------------------------
# protocol hardening: stale-referral requeue
# ----------------------------------------------------------------------


class TestStaleReferralRequeue:
    def _fragment(self, **protocol_kwargs):
        """n heads a fragment with child m; n holds a stale referral to m."""
        overlay = Overlay(source_fanout=1)
        n = overlay.add_consumer(spec(2, 2), "n")
        m = overlay.add_consumer(spec(3, 2), "m")
        overlay.attach(m, n)
        probe = RecordingProbe()
        overlay.probe = probe
        return overlay, n, m, probe, ProtocolConfig(**protocol_kwargs)

    def test_requeue_spends_the_round_on_a_fresh_query(self):
        overlay, n, m, probe, config = self._fragment(
            requeue_stale_referrals=True
        )
        oracle = _MissOracle()
        algorithm = GreedyConstruction(overlay, oracle, config)
        n.referral = m
        algorithm.step(n)
        assert oracle.calls == 1  # requeried instead of wasting the round
        stale = probe.events_of("stale-referral")
        assert [(e.node, e.target, e.reason) for e in stale] == [
            (n.node_id, m.node_id, "same-fragment")
        ]

    def test_default_keeps_the_wasted_round(self):
        overlay, n, m, probe, config = self._fragment()
        oracle = _MissOracle()
        algorithm = GreedyConstruction(overlay, oracle, config)
        n.referral = m
        algorithm.step(n)
        assert oracle.calls == 0  # paper behavior: round silently wasted
        assert not probe.events_of("stale-referral")

    def test_requeued_same_fragment_answer_is_dropped(self):
        overlay, n, m, probe, config = self._fragment(
            requeue_stale_referrals=True
        )
        oracle = _FixedOracle(m)  # the fresh sample is useless too
        algorithm = GreedyConstruction(overlay, oracle, config)
        n.referral = m
        attaches_before = overlay.attach_count
        algorithm.step(n)
        assert oracle.calls == 1
        assert overlay.attach_count == attaches_before

    def test_offline_referral_reported_and_oracle_consulted(self):
        overlay, n, m, probe, config = self._fragment()
        ghost = overlay.add_consumer(spec(2, 2), "ghost")
        overlay.go_offline(ghost)
        oracle = _MissOracle()
        algorithm = GreedyConstruction(overlay, oracle, config)
        n.referral = ghost
        algorithm.step(n)
        assert oracle.calls == 1  # the pre-existing oracle fallback
        stale = probe.events_of("stale-referral")
        assert [e.reason for e in stale] == ["offline"]


# ----------------------------------------------------------------------
# simulation wiring
# ----------------------------------------------------------------------


class TestGoldenSeedGuard:
    """Installing NullFaultPlan must be bit-identical to faults=None."""

    @pytest.mark.parametrize("algorithm", ["greedy", "hybrid"])
    @pytest.mark.parametrize("oracle", PAPER_ORACLES)
    def test_null_plan_bit_identical(self, algorithm, oracle):
        results = []
        for faults in (None, NullFaultPlan()):
            config = SimulationConfig(
                algorithm=algorithm,
                oracle=oracle,
                seed=17,
                max_rounds=250,
                churn=ChurnConfig(),
                stop_at_convergence=False,
                faults=faults,
            )
            results.append(
                run_simulation(make("Rand", size=36, seed=5), config)
            )
        assert results[0] == results[1]

    def test_null_plan_installs_idle_machinery(self):
        config = SimulationConfig(seed=3, faults=NullFaultPlan())
        simulation = Simulation(make("Rand", size=10, seed=3), config)
        assert simulation.injector is not None
        assert isinstance(simulation.oracle, FaultGatedOracle)
        simulation.run()
        assert simulation.injector.injected == 0
        assert not simulation.injector.state.any_active()


class TestMidScheduleCrash:
    def test_crashed_node_must_not_act_that_round(self):
        """The runner's liveness guard is load-bearing under faults: a
        victim crashed after the roster shuffle sits in this round's
        schedule but must not take its action."""
        victims = (1, 2, 3)
        crash_round = 5
        plan = FaultPlan.of(CrashNodes(round=crash_round, node_ids=victims))
        config = SimulationConfig(
            algorithm="hybrid",
            seed=9,
            max_rounds=crash_round,
            faults=plan,
            stop_at_convergence=False,
        )
        simulation = Simulation(make("Rand", size=20, seed=9), config)
        acted = []
        original_step = simulation.algorithm.step
        original_maintain = simulation.algorithm.maintain

        def recording_step(node):
            acted.append(node.node_id)
            return original_step(node)

        def recording_maintain(node):
            acted.append(node.node_id)
            return original_maintain(node)

        simulation.algorithm.step = recording_step
        simulation.algorithm.maintain = recording_maintain
        while simulation.now < crash_round - 1:
            simulation.run_round()
        roster = {n.node_id for n in simulation.overlay.online_consumers}
        assert set(victims) <= roster  # all victims are in the shuffle
        acted.clear()
        simulation.run_round()  # the crash fires mid-schedule
        assert not (set(victims) & set(acted))
        assert all(not simulation.overlay.node(v).online for v in victims)
        assert acted  # the survivors did act


class TestChaosRecovery:
    """Acceptance: 20% simultaneous crash into a converged overlay."""

    @pytest.mark.parametrize("algorithm", ["greedy", "hybrid"])
    def test_mass_crash_reconverges_within_budget(self, algorithm):
        crash_round = 80
        plan = FaultPlan.of(MassCrash(round=crash_round, fraction=0.2))
        config = SimulationConfig(
            algorithm=algorithm,
            oracle="random-delay",
            seed=17,
            max_rounds=400,
            faults=plan,
            stop_at_convergence=False,
        )
        simulation = Simulation(make("Rand", size=36, seed=5), config)
        while simulation.now < crash_round - 1:
            simulation.run_round()
        assert simulation.metrics.records[-1].quality.converged, (
            "overlay must be converged before the crash for the scenario "
            "to mean anything"
        )
        online_before = len(simulation.overlay.online_consumers)
        simulation.run_round()  # crash fires
        expected_victims = max(1, round(online_before * 0.2))
        assert (
            len(simulation.overlay.online_consumers)
            == online_before - expected_victims
        )
        # Recover, with structural integrity checked every single round.
        while simulation.now < config.max_rounds:
            simulation.overlay.check_integrity()
            if simulation.metrics.records[-1].quality.converged:
                break
            simulation.run_round()
        result = simulation.result()
        assert result.time_to_recover is not None, "never re-converged"
        assert result.time_to_recover <= 400 - crash_round
        assert result.fault_events == 1
        assert result.recovery_series == [result.time_to_recover]
        assert result.availability < 1.0  # the dent is visible
        assert result.time_to_recover > 0  # and so was the fault

    def test_layered_fault_soak_reconverges(self):
        """A 20 % crash rejoining as a burst, a source outage and a stale
        oracle view over N=120, integrity checked every 10 rounds: the
        overlay re-converges after the last fault."""
        spec = RunSpec.parse(ledger_tool.CHAOS)  # the quick/chaos_soak run
        simulation = Simulation(spec.make_workload(0), spec.config(0))
        while simulation.now < spec.rounds:
            simulation.run_round()
            if simulation.now % 10 == 0:
                simulation.overlay.check_integrity()
        assert simulation.result().time_to_recover is not None


class TestRecoveryMetrics:
    def test_no_faults_reports_neutral_values(self):
        result = run_simulation(
            make("Rand", size=20, seed=3), SimulationConfig(seed=3)
        )
        assert result.time_to_recover is None
        assert result.fault_events == 0
        assert result.recovery_series == []
        assert 0.0 <= result.availability <= 1.0

    def test_unrecovered_fault_reports_absent_ttr(self):
        # The budget ends in the same round the crash fires, so there is
        # no chance to recover: the series carries None and the scalar
        # time_to_recover is absent.
        plan = FaultPlan.of(MassCrash(round=30, fraction=0.5))
        config = SimulationConfig(
            seed=7, max_rounds=30, faults=plan, stop_at_convergence=False
        )
        result = run_simulation(make("Rand", size=30, seed=7), config)
        assert result.fault_events == 1
        assert result.recovery_series == [None]
        assert result.time_to_recover is None

    def test_recovery_events_emitted_through_probe(self):
        probe = RecordingProbe()
        plan = FaultPlan.of(CrashNodes(round=40, node_ids=(1,)))
        config = SimulationConfig(
            seed=17,
            max_rounds=200,
            faults=plan,
            stop_at_convergence=False,
            probe=probe,
        )
        result = run_simulation(make("Rand", size=20, seed=17), config)
        recoveries = probe.events_of("recovery")
        assert len(recoveries) == 1
        assert recoveries[0].fault_round == 40
        assert recoveries[0].rounds == result.time_to_recover


class TestFaultsCli:
    def test_build_with_faults_and_harden(self, capsys):
        code = main(
            [
                "build",
                "--workload",
                "Rand",
                "--size",
                "20",
                "--seed",
                "3",
                "--max-rounds",
                "250",
                "--faults",
                "crash@40:0.2:rejoin=10,source-outage@60:5",
                "--harden",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault events" in out and "availability" in out

    def test_bad_fault_plan_is_rejected(self, capsys):
        argv = ["--size", "10", "--faults", "warp-drive@5:1"]
        for command in (["build", "--workload", "Rand"], ["sweep"]):
            assert main(command + argv) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                "error: faults: cannot parse fault spec 'warp-drive@5:1': "
                "unknown fault 'warp-drive'\n"
            )
            assert captured.out == ""
