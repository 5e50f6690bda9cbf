"""The continuous-time engine and its geo latency substrate.

Four layers of guarantees, ordered by blast radius:

* **rounds mode is untouched** — golden-seed fingerprints pin that the
  synchronous engine produces bit-identical results before and after
  the continuous-time refactor (``make_simulation`` dispatch, the new
  ``SimulationConfig.time_model`` field, the par-worker rewiring);
* **the geo model is a pure function of (profile, seed)** — hypothesis
  properties for symmetry, positivity, order-independent determinism,
  and the triangle-violation flagging tool;
* **the continuous engine is seeded-deterministic** — repeat runs of
  one config are bit-identical, serial and pooled sweeps agree, and the
  ms-domain result fields behave (populated under a continuous model,
  absent on the rounds clock);
* **the CLI surface holds** — ``repro latency`` and
  ``repro build --time-model`` smokes, including the ms-fault-window
  error path.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import NodeSpec
from repro.core.errors import ConfigurationError
from repro.faults.plan import parse_fault_plan
from repro.locality.geo import (
    ORACLE_ENDPOINT,
    SOURCE_ENDPOINT,
    GeoLatencyModel,
    GeoProfile,
    PROFILES,
    get_profile,
    profile_names,
)
from repro.sim.churn import ChurnConfig
from repro.sim.continuous import ContinuousSimulation
from repro.sim.runner import SimulationConfig, make_simulation, run_simulation
from repro.sim.timemodel import TimeModel, parse_time_model
from repro.workloads import make as make_workload
from repro.workloads.random_workload import rand_workload


# ----------------------------------------------------------------------
# geo substrate properties
# ----------------------------------------------------------------------


class TestGeoModelProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        a=st.integers(min_value=-1, max_value=10_000),
        b=st.integers(min_value=-1, max_value=10_000),
        profile=st.sampled_from(sorted(PROFILES)),
    )
    @settings(max_examples=120, deadline=None)
    def test_one_way_is_symmetric_and_positive(self, seed, a, b, profile):
        model = GeoLatencyModel(get_profile(profile), seed)
        forward = model.one_way_ms(a, b)
        assert forward == model.one_way_ms(b, a)
        assert forward > 0.0
        assert model.rtt_ms(a, b) == 2.0 * forward

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        endpoints=st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        profile=st.sampled_from(sorted(PROFILES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_seed_is_deterministic_and_order_independent(
        self, seed, endpoints, profile
    ):
        spec = get_profile(profile)
        forward_order = GeoLatencyModel(spec, seed)
        reverse_order = GeoLatencyModel(spec, seed)
        ordered = [
            forward_order.placement(endpoint) for endpoint in endpoints
        ]
        reversed_ = [
            reverse_order.placement(endpoint)
            for endpoint in reversed(endpoints)
        ]
        assert ordered == list(reversed(reversed_))
        assert forward_order.matrix == reverse_order.matrix

    def test_infrastructure_endpoints_have_no_last_mile(self):
        model = GeoLatencyModel(get_profile("geo-3region"), seed=11)
        for endpoint in (SOURCE_ENDPOINT, ORACLE_ENDPOINT):
            pop, last_mile = model.placement(endpoint)
            assert last_mile == 0.0
            assert pop == model._infra_pop

    def test_triangle_flagging_catches_a_violating_profile(self):
        # A deliberate geometry violation: two cheap legs bridge a
        # 1000 ms direct one, with zero jitter so it is pure geometry.
        violating = GeoProfile(
            name="violating",
            regions=("a", "b", "c"),
            region_weights=(1.0, 1.0, 1.0),
            inter_region_ms={(0, 1): 10.0, (0, 2): 1000.0, (1, 2): 10.0},
            pops_per_region=1,
            jitter=0.0,
        )
        model = GeoLatencyModel(violating, seed=0)
        assert model.triangle_violations(tolerance=0.0) > 0.2
        # ... and tolerance flags strictly less as it loosens.
        strict = model.triangle_violations(tolerance=0.0)
        loose = model.triangle_violations(tolerance=60.0)
        assert loose <= strict
        assert loose == 0.0

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_builtin_profiles_are_sane_at_generous_tolerance(self, seed):
        # Built-in bases are triangle-safe by construction (ring bases /
        # published backbone figures); what a built matrix flags comes
        # from jitter and intra-region spread, and a generous tolerance
        # absorbs all of it.
        for name in profile_names():
            model = GeoLatencyModel(get_profile(name), seed)
            assert model.triangle_violations(tolerance=4.0) == 0.0

    def test_sampling_never_perturbs_the_model(self):
        model = GeoLatencyModel(get_profile("geo-3region"), seed=5)
        before = model.one_way_ms(17, 23)
        samples = model.sample_one_way_ms(200, sample_seed=1)
        assert samples == model.sample_one_way_ms(200, sample_seed=1)
        assert model.one_way_ms(17, 23) == before


# ----------------------------------------------------------------------
# time-model parsing and config validation
# ----------------------------------------------------------------------


class TestTimeModelParsing:
    def test_rounds_is_the_default(self):
        model = parse_time_model("rounds")
        assert model == TimeModel()
        assert not model.continuous

    def test_continuous_with_profile(self):
        model = parse_time_model("continuous:geo-3region")
        assert model.continuous
        assert model.profile == "geo-3region"

    def test_empty_means_the_default(self):
        assert parse_time_model("") == TimeModel()

    @pytest.mark.parametrize(
        "text",
        ["sometime", "continuous", "continuous:", "continuous:nope"],
    )
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ConfigurationError):
            parse_time_model(text)

    def test_config_rejects_continuous_with_asynchrony(self):
        from repro.sim.asynchrony import AsynchronyConfig

        with pytest.raises(ConfigurationError, match="asynchrony"):
            SimulationConfig(
                time_model="continuous:geo-3region",
                asynchrony=AsynchronyConfig(),
            )

    def test_config_rejects_continuous_with_multipath(self):
        with pytest.raises(ConfigurationError, match="single-overlay"):
            SimulationConfig(time_model="continuous:geo-3region", paths=2)


class TestFaultMsWindows:
    def test_ms_tokens_convert_with_the_round_tick(self):
        plan = parse_fault_plan(
            "crash@6000ms:0.2:rejoin=1500ms,source-outage@8000ms:1000ms",
            ms_per_round=100.0,
        )
        crash, outage = plan.specs
        assert crash.round == 60
        assert crash.rejoin_after == 15
        assert outage.round == 80
        assert outage.duration == 10

    def test_ms_windows_floor_at_one_round(self):
        plan = parse_fault_plan("source-outage@20ms:1ms", ms_per_round=100.0)
        assert plan.specs[0].round == 1
        assert plan.specs[0].duration == 1

    def test_ms_without_a_wall_clock_is_an_error(self):
        with pytest.raises(ConfigurationError, match="no wall clock"):
            parse_fault_plan("crash@6000ms:0.2")

    def test_plain_rounds_still_parse_either_way(self):
        with_clock = parse_fault_plan("crash@60:0.2", ms_per_round=100.0)
        without = parse_fault_plan("crash@60:0.2")
        assert with_clock == without


# ----------------------------------------------------------------------
# rounds mode is bit-identical to the pre-refactor engine
# ----------------------------------------------------------------------


def _fingerprint(config: SimulationConfig) -> str:
    workload = make_workload("Rand", size=80, seed=3)
    result = run_simulation(workload, config)
    payload = {
        "converged": result.converged,
        "construction_rounds": result.construction_rounds,
        "rounds_run": result.rounds_run,
        "attaches": result.attaches,
        "detaches": result.detaches,
        "oracle_misses": result.oracle_misses,
        "satisfied_series": result.satisfied_series,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class TestRoundsModeGoldenSeeds:
    """Captured on the pre-refactor engine; a mismatch means the
    continuous-time work changed rounds-mode behaviour."""

    def test_greedy_static(self):
        config = SimulationConfig(
            algorithm="greedy", oracle="random-delay", seed=7, max_rounds=400
        )
        assert _fingerprint(config) == "b8f3ea2c96cc7c76"

    def test_hybrid_under_churn(self):
        config = SimulationConfig(
            algorithm="hybrid",
            oracle="random-delay",
            seed=7,
            max_rounds=120,
            churn=ChurnConfig(),
            stop_at_convergence=False,
        )
        assert _fingerprint(config) == "6f2a65a1233008a6"

    def test_rounds_mode_results_carry_no_ms_fields(self):
        workload = make_workload("Rand", size=40, seed=1)
        result = run_simulation(
            workload, SimulationConfig(seed=1, max_rounds=200)
        )
        assert result.time_model == "rounds"
        assert result.sim_time_ms is None
        assert result.events_fired == 0
        assert result.staleness_ms_p50 is None
        assert result.staleness_ms_p99 is None
        assert result.time_to_recover_ms is None


# ----------------------------------------------------------------------
# the continuous engine
# ----------------------------------------------------------------------

CONTINUOUS = SimulationConfig(
    seed=5, max_rounds=300, time_model="continuous:geo-3region"
)


class TestContinuousEngine:
    def test_dispatch_picks_the_continuous_engine(self):
        workload = make_workload("Rand", size=30, seed=2)
        assert isinstance(
            make_simulation(workload, CONTINUOUS), ContinuousSimulation
        )

    def test_converges_and_reports_ms(self):
        workload = make_workload("Rand", size=60, seed=2)
        result = run_simulation(workload, CONTINUOUS)
        assert result.converged
        assert result.time_model == "continuous:geo-3region"
        profile = get_profile("geo-3region")
        assert result.sim_time_ms == result.rounds_run * profile.round_ms
        assert result.events_fired > 0
        # Staleness = one pull period + transit legs: bounded below by
        # T, and the tail dominates the median.
        assert result.staleness_ms_p50 >= profile.pull_period_ms
        assert result.staleness_ms_p99 >= result.staleness_ms_p50

    def test_repeat_runs_are_bit_identical(self):
        workload = make_workload("Rand", size=60, seed=2)
        first = run_simulation(workload, CONTINUOUS)
        second = run_simulation(workload, CONTINUOUS)
        assert first == second

    def test_seed_changes_the_outcome(self):
        workload = make_workload("Rand", size=60, seed=2)
        other = dataclasses.replace(CONTINUOUS, seed=6)
        first = run_simulation(workload, CONTINUOUS)
        second = run_simulation(workload, other)
        assert (
            first.staleness_ms_p50,
            first.events_fired,
        ) != (second.staleness_ms_p50, second.events_fired)

    def test_fault_recovery_reports_ms(self):
        workload = make_workload("Rand", size=50, seed=4)
        config = dataclasses.replace(
            CONTINUOUS,
            faults=parse_fault_plan("crash@3000ms:0.3", ms_per_round=100.0),
            stop_at_convergence=False,
            max_rounds=120,
        )
        result = run_simulation(workload, config)
        assert result.fault_events > 0
        if result.time_to_recover is not None:
            profile = get_profile("geo-3region")
            assert result.time_to_recover_ms == (
                result.time_to_recover * profile.round_ms
            )

    def test_churn_runs_on_the_continuous_clock(self):
        workload = make_workload("Rand", size=50, seed=4)
        config = dataclasses.replace(
            CONTINUOUS,
            churn=ChurnConfig(),
            stop_at_convergence=False,
            max_rounds=80,
        )
        first = run_simulation(workload, config)
        second = run_simulation(workload, config)
        assert first == second
        assert first.rounds_run == 80

    def test_a_blank_engine_has_no_overlay_and_does_not_recurse(self):
        """``copy`` and ``pickle`` rebuild an engine on an instance
        ``__init__`` never ran on: looking an attribute up there must
        fail plainly, not recurse."""
        blank = object.__new__(ContinuousSimulation)
        assert not hasattr(blank, "overlay")
        with pytest.raises(AttributeError, match="overlay"):
            blank.overlay

    def test_a_shallow_copy_shares_the_overlay(self):
        engine = make_simulation(make_workload("Rand", size=40, seed=2), CONTINUOUS)
        shallow = copy.copy(engine)
        assert isinstance(shallow, ContinuousSimulation)
        assert shallow.overlay is engine.overlay
        with pytest.raises(AttributeError):
            shallow.no_such_attribute

    def test_a_pickled_engine_is_a_whole_independent_run(self):
        """Like the rounds-mode Simulation's."""
        engine = make_simulation(make_workload("Rand", size=40, seed=2), CONTINUOUS)
        restored = pickle.loads(pickle.dumps(engine))
        assert restored.overlay is not engine.overlay
        assert restored.run() == engine.run()

    def test_run_round_is_one_boundary_tick(self):
        """``run_round()`` fires the actions due before the first
        boundary on the event clock; it is not a synchronous sweep."""
        workload, _ = rand_workload(60, seed=1)
        engine = make_simulation(
            workload,
            SimulationConfig(
                algorithm="hybrid",
                oracle="random-delay",
                seed=0,
                time_model="continuous:geo-3region",
                max_rounds=50,
            ),
        )
        engine.run_round()
        assert engine.now == 1
        assert engine.scheduler.now == engine.round_ms
        assert engine.scheduler.fired > 0
        engine.check_schedule()

    @pytest.mark.parametrize("rounds", (1, 9, 40))
    @pytest.mark.parametrize("dynamic", (False, True), ids=("static", "churn+faults"))
    def test_stepped_rounds_then_result_equal_run(self, rounds, dynamic):
        config = dataclasses.replace(
            CONTINUOUS,
            algorithm="hybrid",
            max_rounds=rounds,
            stop_at_convergence=False,
        )
        if dynamic:
            config = dataclasses.replace(
                config,
                churn=ChurnConfig(),
                faults=parse_fault_plan("crash@5:0.2:rejoin=6"),
            )
        workload = make_workload("Rand", size=40, seed=3)
        stepped = make_simulation(workload, config)
        for _ in range(rounds):
            stepped.run_round()
        assert stepped.result() == make_simulation(workload, config).run()


# ----------------------------------------------------------------------
# wake-on-violation: dormant nodes, virtual ticks, the idle-actor scan
# ----------------------------------------------------------------------


class _Bounce:
    """A churn stand-in: at boundary ``when`` the node crashes and is
    back online before the boundary is over."""

    total_departures = total_rejoins = 0

    def __init__(self, overlay, node, when):
        self.overlay, self.node, self.when = overlay, node, when

    def step(self, now):
        if now != self.when:
            return 0, 0
        self.overlay.go_offline(self.node, graceful=False)
        self.overlay.go_online(self.node)
        return 1, 1


def _record_actions(engine):
    """Log ``(time, node id)`` of every action the engine fires."""
    log = []
    act = engine._act

    def recording(node):
        log.append((engine.scheduler.now, node.node_id))
        act(node)

    engine._act = recording  # looked up at schedule time
    return log


def _static_engine():
    config = dataclasses.replace(
        CONTINUOUS, stop_at_convergence=False, max_rounds=40
    )
    return make_simulation(make_workload("Rand", size=40, seed=2), config)


def _drive(engine, boundaries):
    """``run()``'s loop, without the convergence stop."""
    for _ in range(boundaries):
        engine.run_round()


class TestWakeOnViolation:
    def test_schedule_invariant_holds_at_every_boundary(self):
        """Every online consumer holds exactly one queued action or is
        dormant, parented and settled — under churn and a fault plan."""
        config = dataclasses.replace(
            CONTINUOUS,
            algorithm="hybrid",
            churn=ChurnConfig(),
            faults=parse_fault_plan("crash@20:0.2:rejoin=10,source-outage@35:4"),
            stop_at_convergence=False,
        )
        engine = make_simulation(make_workload("Rand", size=150, seed=4), config)
        dormant_seen = 0
        for _ in range(60):
            engine.run_round()
            engine.check_schedule()
            dormant_seen += sum(1 for t in engine._last_check if t >= 0)
        assert dormant_seen  # the invariant was not vacuous
        engine.overlay.check_integrity()

    def test_check_schedule_catches_a_lost_wake(self):
        engine = make_simulation(make_workload("Rand", size=40, seed=2), CONTINUOUS)
        engine.run()
        engine.check_schedule()
        sleeper = next(
            n for n in engine.overlay.online_consumers
            if engine._last_check[n.node_id] >= 0
        )
        engine.overlay.detach(sleeper)
        engine._touched.clear()  # the wake signal goes missing
        with pytest.raises(RuntimeError, match="has something to do"):
            engine.check_schedule()

    def test_settled_nodes_hold_no_queue_entry(self):
        config = dataclasses.replace(CONTINUOUS, stop_at_convergence=False)
        engine = make_simulation(make_workload("Rand", size=60, seed=2), config)
        result = engine.run()
        assert result.converged
        # Converged and static: everybody sleeps, nothing is pending.
        assert engine.scheduler.pending == 0
        assert all(
            engine._last_check[n.node_id] >= 0
            for n in engine.overlay.online_consumers
        )
        assert result.events_fired < 60 * result.rounds_run

    @pytest.mark.parametrize("on_the_boundary", (False, True))
    def test_crash_and_rejoin_within_one_tick_acts_once_at_the_virtual_tick(
        self, on_the_boundary
    ):
        engine = _static_engine()
        log = _record_actions(engine)
        _drive(engine, 30)
        sleeper = next(
            n for n in engine.overlay.online_consumers
            if engine._last_check[n.node_id] >= 0 and not n.children
        )
        bounce_at = engine.now + 1
        boundary_ms = bounce_at * engine.round_ms
        if on_the_boundary:
            # A tick that coincides with the boundary fired (as a no-op)
            # before the boundary's churn: the next one is a tick later.
            engine._last_check[sleeper.node_id] = boundary_ms - engine.round_ms
        tick = engine._last_check[sleeper.node_id]
        while tick <= boundary_ms:
            tick += engine.round_ms
        engine.churn = _Bounce(engine.overlay, sleeper, bounce_at)
        engine.run_round()
        # Woken by its own detach: queued once, the rejoin scan skips it.
        assert sleeper in engine._queued
        assert engine._last_check[sleeper.node_id] < 0
        engine.check_schedule()
        engine.run_round()
        acted = [t for t, node_id in log if node_id == sleeper.node_id]
        assert [t for t in acted if boundary_ms - engine.round_ms < t <= tick] == [
            tick
        ]
        assert boundary_ms < tick <= boundary_ms + engine.round_ms

    def test_a_sleeper_removed_for_good_just_stops_being_tracked(self):
        engine = _static_engine()
        _drive(engine, 30)
        sleeper = next(
            n for n in engine.overlay.online_consumers
            if engine._last_check[n.node_id] >= 0
        )
        engine.overlay.go_offline(sleeper)
        engine.overlay.remove_consumer(sleeper)
        engine.run_round()
        assert engine._last_check[sleeper.node_id] < 0
        assert sleeper not in engine._queued
        engine.check_schedule()
        engine.overlay.check_integrity()

    def test_virtual_ticks_are_the_floats_polling_would_have_made(self):
        """A woken node's timestamp comes from repeated addition, and the
        scheduler hands an absolute timestamp back untouched."""
        from repro.sim.engine import EventScheduler

        scheduler = EventScheduler()
        scheduler.run_until(0.7)
        tick = 0.1
        for _ in range(9):
            tick += 0.1  # 0.1 + 9 * 0.1 is not this float
        assert tick != 0.1 + 9 * 0.1
        assert scheduler.schedule_at(tick, lambda: None).time == tick
        with pytest.raises(ConfigurationError):
            scheduler.schedule_at(0.5, lambda: None)

    def test_a_newcomer_is_queued_at_the_next_boundary(self):
        engine = _static_engine()
        _drive(engine, 10)
        newcomer = engine.overlay.add_consumer(NodeSpec(latency=9, fanout=1))
        assert newcomer not in engine._queued
        engine.run_round()
        assert newcomer in engine._queued
        engine.check_schedule()

    def test_a_rejoin_after_its_action_dissolved_is_queued_again(self):
        engine = _static_engine()
        _drive(engine, 10)
        victim = engine.overlay.online_consumers[5]
        engine.overlay.go_offline(victim)
        engine.run_round()
        engine.run_round()  # its pending action has dissolved by now
        assert victim not in engine._queued
        engine.overlay.go_online(victim)
        engine.run_round()
        assert victim in engine._queued
        engine.check_schedule()


class TestSerialVsPooledSweeps:
    def test_continuous_sweep_is_identical_serial_and_pooled(self):
        from repro.par import make_executor, repeat_items

        config = dataclasses.replace(CONTINUOUS, max_rounds=150)
        items = repeat_items("Rand", config, 40, repeats=4, base_seed=0)
        serial = make_executor(0).run(items)
        pooled = make_executor(2).run(items)
        assert [outcome.result for outcome in serial] == [
            outcome.result for outcome in pooled
        ]
        assert all(outcome.ok for outcome in serial)


# ----------------------------------------------------------------------
# the continuous soak
# ----------------------------------------------------------------------


class TestContinuousSoak:
    def test_soak_reports_ms_slos_and_stays_deterministic(self):
        from repro.multifeed.soak import SoakConfig, parse_timeline, run_soak

        config = SoakConfig(
            consumer_count=24,
            rounds=40,
            warmup_rounds=16,
            timeline=parse_timeline("flash@24:news:x2:ramp=2"),
            time_model="continuous:geo-3region",
        )
        first = run_soak(config)
        second = run_soak(config)
        assert first == second
        assert first.time_model == "continuous:geo-3region"
        profile = get_profile("geo-3region")
        for stats in first.feeds:
            assert stats.p50_ms == stats.p50 * profile.pull_period_ms
            assert stats.p99_ms == stats.p99 * profile.pull_period_ms

    def test_rounds_soak_carries_no_ms_fields(self):
        from repro.multifeed.soak import SoakConfig, run_soak

        summary = run_soak(
            SoakConfig(consumer_count=24, rounds=30, warmup_rounds=12)
        )
        assert summary.time_model == "rounds"
        assert summary.time_to_recover_ms is None
        assert all(stats.p99_ms is None for stats in summary.feeds)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestContinuousCli:
    def test_latency_inspector(self, capsys):
        from repro.cli import main

        assert main(["latency", "--profile", "geo-3region"]) == 0
        out = capsys.readouterr().out
        assert "profile geo-3region" in out
        assert "triangle inequality" in out

    def test_latency_list(self, capsys):
        from repro.cli import main

        assert main(["latency", "--list"]) == 0
        out = capsys.readouterr().out
        for name in profile_names():
            assert name in out

    def test_build_continuous_reports_ms(self, capsys):
        from repro.cli import main

        code = main(
            [
                "build",
                "--size",
                "40",
                "--time-model",
                "continuous:geo-3region",
                "--max-rounds",
                "300",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "staleness p50 (ms)" in out
        assert "geo-3region" in out

    def test_build_rejects_unknown_profile(self, capsys):
        # A configuration error is a usage error: ``error: ...`` on
        # stderr and exit 2, as for bad fault plans (pinned in
        # tests/test_faults.py) and in serve-soak and latency.
        from repro.cli import main

        assert main(["build", "--time-model", "continuous:nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: time-model: unknown latency profile")
        assert captured.out == ""

    def test_build_rejects_ms_faults_without_continuous(self, capsys):
        from repro.cli import main

        assert main(["build", "--size", "30", "--faults", "crash@500ms:0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: faults: ")
        assert "no wall clock" in captured.err
        assert captured.out == ""

    def test_latency_rejects_unknown_profile(self, capsys):
        from repro.cli import main

        assert main(["latency", "--profile", "nope"]) == 2
        assert "unknown latency profile" in capsys.readouterr().err
