"""Tests for the run-observability layer (:mod:`repro.obs`).

Covers the counter/gauge/histogram registry, event JSONL round-trips,
probe emission from real runs, the O(1) scheduler pending counter, the
CLI trace/summarize flow — and the layer's central invariant: recording
a run must not change it.
"""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.obs import (
    AttachAccept,
    AttachReject,
    Backoff,
    ChurnLeave,
    ChurnRejoin,
    Detach,
    EVENT_TYPES,
    FaultInjected,
    FeedHealth,
    MaintenanceTrigger,
    MessageDrop,
    MessageSend,
    MetricsRegistry,
    MultipathDelivery,
    MultipathOverlap,
    NULL_PROBE,
    NullProbe,
    OracleMiss,
    OracleQuery,
    Probe,
    RecordingProbe,
    Recovery,
    Referral,
    SoakPhase,
    SourceContact,
    StaleReferral,
    Timeout,
    event_from_dict,
    read_trace,
    write_trace,
)
from repro.faults import parse_fault_plan
from repro.multifeed.soak import ServiceSoak, SoakConfig, parse_timeline
from repro.multipath.delivery import MultipathSystem
from repro.obs.counters import Histogram
from repro.obs.export import counter_rows, event_count_rows, phase_timing_rows
from repro.obs.timing import PhaseTimings
from repro.network.latency import ConstantLatency
from repro.network.transport import Network
from repro.sim.churn import ChurnConfig
from repro.sim.engine import EventScheduler
from repro.sim.runner import (
    Simulation,
    SimulationConfig,
    make_simulation,
    run_simulation,
)
from repro.workloads import make

SAMPLE_EVENTS = [
    OracleQuery(round=1, node=3, oracle="random-delay", response_size=7, partner=5),
    OracleMiss(round=1, node=4, oracle="random-delay"),
    Referral(round=2, node=3, target=2, origin="interaction"),
    AttachAccept(round=2, child=3, parent=2),
    AttachReject(round=2, child=4, parent=2, reason="no-fanout"),
    Detach(round=3, child=3, parent=2, reason="maintenance"),
    MaintenanceTrigger(round=3, node=3, rule="greedy", delay=3, latency=2),
    Timeout(round=4, node=4),
    ChurnLeave(round=5, node=2, orphans=1),
    ChurnRejoin(round=6, node=2),
    MessageSend(round=6, sender=1, recipient=2, message_kind="pull"),
    MessageDrop(round=6, sender=1, recipient=2, message_kind="pull", reason="loss"),
    SourceContact(round=7, node=4, outcome="attach"),
    StaleReferral(round=7, node=4, target=2, reason="offline"),
    Backoff(round=7, node=4, failures=2, delay=18),
    FaultInjected(round=8, fault="mass-crash", affected=24),
    Recovery(round=9, fault_round=8, rounds=1),
    MultipathOverlap(round=10, node=3, path_kept=0, path_detached=1, shared=2),
    MultipathDelivery(round=10, delivered=22, online=24, paths=2),
    SoakPhase(round=11, phase="flash-crowd", feed="news", affected=360),
    FeedHealth(round=11, feed="news", online=396, rooted=380, satisfied=350,
               deliveries=6100),
]


class TestCounters:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events.attach-accept")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("round.current")
        gauge.set(3)
        gauge.set(7)
        assert gauge.value == 7

    def test_registry_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.counter("a") is not registry.counter("b")

    def test_histogram_stats(self):
        histogram = Histogram("test")
        for value in (1, 2, 3, 100):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 106
        assert histogram.min == 1
        assert histogram.max == 100
        assert histogram.mean == pytest.approx(26.5)

    def test_histogram_buckets(self):
        histogram = Histogram("test", bounds=(1, 10, 100))
        for value in (0.5, 1, 5, 50, 500):
            histogram.observe(value)
        # (<=1): 0.5, 1; (<=10): 5; (<=100): 50; overflow: 500
        assert histogram.bucket_counts == [2, 1, 1, 1]

    def test_histogram_quantile(self):
        histogram = Histogram("test", bounds=(1, 10, 100))
        for value in (1, 1, 1, 50):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1
        assert histogram.quantile(1.0) == 100  # upper bound of 50's bucket
        assert Histogram("empty").quantile(0.5) is None

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(10, 1))

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(3)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["histograms"]["h"]["count"] == 1


class TestEvents:
    def test_every_event_type_round_trips(self):
        assert {e.kind for e in SAMPLE_EVENTS} == set(EVENT_TYPES)
        for event in SAMPLE_EVENTS:
            payload = json.loads(json.dumps(event.to_dict()))
            assert event_from_dict(payload) == event

    def test_unknown_kind_is_skipped(self):
        assert event_from_dict({"kind": "warp-drive", "round": 1}) is None

    def test_events_are_immutable(self):
        with pytest.raises(Exception):
            SAMPLE_EVENTS[0].round = 99


class TestTraceExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        timings = PhaseTimings()
        timings.add("step", 0.25)
        timings.add("step", 0.25)
        timings.add("churn", 0.5)
        registry = MetricsRegistry()
        registry.counter("events.timeout").inc(3)
        registry.histogram("oracle.response_size").observe(4)
        count = write_trace(
            path,
            SAMPLE_EVENTS,
            phase_timings=timings.summary(),
            registry=registry,
            header_extra={"seed": 7},
        )
        assert count == len(SAMPLE_EVENTS)
        trace = read_trace(path)
        assert trace.events == SAMPLE_EVENTS
        assert trace.header["seed"] == 7
        assert trace.phase_timings["step"] == {"seconds": 0.5, "calls": 2}
        assert trace.metrics["events.timeout"]["value"] == 3
        assert trace.metrics["oracle.response_size"]["count"] == 1

    def test_summary_rows(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        timings = PhaseTimings()
        timings.add("step", 0.75)
        timings.add("churn", 0.25)
        write_trace(path, SAMPLE_EVENTS, phase_timings=timings.summary())
        trace = read_trace(path)
        counts = dict((row[0], row[1]) for row in event_count_rows(trace))
        assert counts["oracle-query"] == 1
        rows = {row[0]: row for row in phase_timing_rows(trace)}
        assert rows["step"][3] == pytest.approx(0.75)
        assert rows["churn"][3] == pytest.approx(0.25)


class TestNetworkDropCounters:
    """Satellite: drop statistics flow into the obs counter registry."""

    class _Sink:
        def handle_message(self, message):
            pass

    def test_drops_mirrored_into_registry(self):
        import random

        probe = RecordingProbe()
        scheduler = EventScheduler()
        network = Network(
            scheduler,
            ConstantLatency(1.0),
            loss_probability=0.4,
            rng=random.Random(4),
            probe=probe,
        )
        network.register("a", self._Sink())
        for _ in range(40):
            network.send("a", "a", "pull", None)  # subject to loss only
            network.send("a", "ghost", "pull", None)  # unroutable if sent
        scheduler.run()
        assert network.dropped_loss > 0 and network.dropped_unroutable > 0
        registry = probe.registry
        assert (
            registry.counter("network.dropped_loss").value
            == network.dropped_loss
        )
        assert (
            registry.counter("network.dropped_unroutable").value
            == network.dropped_unroutable
        )
        drops = probe.events_of("message-drop")
        assert len(drops) == network.dropped_loss + network.dropped_unroutable
        assert {e.reason for e in drops} == {"loss", "unroutable"}

    def test_counter_rows_surface_subsystem_counters(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        registry = MetricsRegistry()
        registry.counter("network.dropped_loss").inc(3)
        registry.counter("faults.mass-crash").inc(1)
        registry.counter("events.timeout").inc(2)  # already in event table
        write_trace(path, [], registry=registry)
        rows = counter_rows(read_trace(path))
        assert ["faults.mass-crash", 1] in rows
        assert ["network.dropped_loss", 3] in rows
        assert all(not name.startswith("events.") for name, _ in rows)


class TestRecordingProbe:
    def run_probed(self, **config_kwargs):
        probe = RecordingProbe()
        config = SimulationConfig(
            algorithm="hybrid",
            seed=3,
            max_rounds=300,
            churn=ChurnConfig(),
            **config_kwargs,
        )
        simulation = Simulation(make("Rand", size=30, seed=3), config, probe=probe)
        result = simulation.run()
        return probe, simulation, result

    def test_probe_sees_every_structural_mutation(self):
        probe, simulation, result = self.run_probed()
        attaches = probe.events_of("attach-accept")
        assert len(attaches) == simulation.overlay.attach_count == result.attaches
        assert len(probe.events_of("oracle-miss")) == result.oracle_misses
        assert len(probe.events_of("churn-leave")) == result.departures
        assert len(probe.events_of("churn-rejoin")) == result.rejoins

    def test_registry_counters_match_event_list(self):
        probe, _, _ = self.run_probed()
        assert probe.events, "instrumented run recorded nothing"
        for kind, count in probe.event_counts().items():
            assert probe.registry.counter(f"events.{kind}").value == count

    def test_rounds_are_stamped_monotonically(self):
        probe, _, result = self.run_probed()
        rounds = [event.round for event in probe.events]
        assert rounds == sorted(rounds)
        assert 1 <= rounds[0] and rounds[-1] <= result.rounds_run

    def test_response_size_histogram_filled(self):
        probe, _, _ = self.run_probed()
        histogram = probe.registry.histogram("oracle.response_size")
        assert histogram.count == len(probe.events_of("oracle-query"))
        assert histogram.count > 0


class TestProbeDoesNotPerturb:
    """The layer's central invariant: observation must never change the run."""

    CONFIGS = [
        dict(algorithm="greedy", oracle="random-delay"),
        dict(algorithm="hybrid", oracle="random-delay"),
        dict(algorithm="hybrid", oracle="random", oracle_realization="random-walk"),
    ]

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_recording_probe_result_identical_to_null_probe(self, overrides):
        results = []
        for probe in (NullProbe(), RecordingProbe()):
            config = SimulationConfig(
                seed=11,
                max_rounds=400,
                churn=ChurnConfig(0.02, 0.3),
                stop_at_convergence=False,
                probe=probe,
                **overrides,
            )
            results.append(
                run_simulation(make("BiCorr", size=25, seed=11), config)
            )
        null_result, recorded_result = results
        assert null_result == recorded_result

    def test_probe_config_slot_and_argument_agree(self):
        via_config = run_simulation(
            make("Rand", size=20, seed=5),
            SimulationConfig(seed=5, probe=RecordingProbe()),
        )
        probe = RecordingProbe()
        simulation = Simulation(
            make("Rand", size=20, seed=5), SimulationConfig(seed=5), probe=probe
        )
        via_argument = simulation.run()
        assert via_config == via_argument
        assert simulation.probe is probe
        assert simulation.overlay.probe is probe

    def test_default_probe_is_the_null_singleton(self):
        simulation = Simulation(
            make("Rand", size=10, seed=1), SimulationConfig(seed=1)
        )
        assert simulation.probe is NULL_PROBE
        assert not simulation.probe.enabled


class CountingProbe(NullProbe):
    """A :class:`NullProbe` that counts every hook call it receives, by
    hook name; ``enabled`` says whether it asks to be called."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.calls: Counter = Counter()


def _counting_hook(name):
    def hook(self, *args, **kwargs):
        self.calls[name] += 1

    return hook


for _name, _hook in vars(Probe).items():
    if callable(_hook) and not _name.startswith("_"):
        setattr(CountingProbe, _name, _counting_hook(_name))


FAULTS = "crash@8:0.2:rejoin=4,source-outage@12:2,stale-view@16:3:2"


def _rounds_run(probe):
    config = SimulationConfig(
        seed=4,
        max_rounds=30,
        churn=ChurnConfig(),
        faults=parse_fault_plan(FAULTS),
        probe=probe,
    )
    Simulation(make("Rand", size=30, seed=4), config).run()


def _continuous_run(probe):
    config = SimulationConfig(
        seed=4,
        max_rounds=30,
        churn=ChurnConfig(),
        faults=parse_fault_plan(FAULTS),
        time_model="continuous:geo-3region",
    )
    make_simulation(make("Rand", size=30, seed=4), config, probe=probe).run()


def _multipath_run(probe):
    MultipathSystem(
        make("Rand", size=24, seed=4),
        paths=2,
        seed=4,
        faults=parse_fault_plan(FAULTS),
        churn=ChurnConfig(),
        probe=probe,
    ).run(max_rounds=30)


def _soak_run(probe):
    config = SoakConfig(
        consumer_count=24,
        seed=4,
        rounds=40,
        warmup_rounds=10,
        timeline=parse_timeline(
            "flash@15:news:x2:ramp=2,exodus@22:sports:0.4,rejoin@28:sports"
        ),
        faults=parse_fault_plan(FAULTS),
    )
    ServiceSoak(config, probe).run()


class TestDisabledProbeIsNeverCalled:
    """Every emission site checks :attr:`Probe.enabled`, so a run with
    observation off makes no hook call in any round loop; the same
    counter, enabled, shows the runs do emit."""

    RUNS = [_rounds_run, _continuous_run, _multipath_run, _soak_run]

    @pytest.mark.parametrize("run", RUNS, ids=lambda run: run.__name__[1:])
    def test_no_hook_call_with_obs_off(self, run):
        probe = CountingProbe(enabled=False)
        run(probe)
        assert probe.calls == Counter()

    @pytest.mark.parametrize("run", RUNS, ids=lambda run: run.__name__[1:])
    def test_the_same_run_emits_with_obs_on(self, run):
        probe = CountingProbe(enabled=True)
        run(probe)
        assert probe.calls["attach"] > 0


class TestPhaseTimings:
    def test_phases_accumulate(self):
        timings = PhaseTimings()
        timings.add("step", 0.5)
        timings.add("step", 0.25)
        timings.add("churn", 0.0)
        assert timings.calls == {"step": 2, "churn": 1}
        assert timings.seconds["step"] == pytest.approx(0.75)
        assert timings.total_seconds >= 0.75

    def test_simulation_surfaces_phase_timings(self):
        result = run_simulation(
            make("Rand", size=15, seed=2),
            SimulationConfig(seed=2, churn=ChurnConfig()),
        )
        assert {"churn", "oracle", "measure"} <= set(result.phase_timings)
        for stats in result.phase_timings.values():
            assert stats["seconds"] >= 0.0
            assert stats["calls"] >= 1

    def test_each_phase_is_timed_once_per_round(self):
        """A churned, faulted run of R rounds times ``churn``,
        ``oracle``, ``faults`` and ``measure`` R times each, and ``step``
        and ``maintain`` once per call of the rule."""
        rounds = 30
        simulation = Simulation(
            make("Rand", size=30, seed=3),
            SimulationConfig(
                seed=3,
                max_rounds=rounds,
                churn=ChurnConfig(),
                faults=parse_fault_plan("crash@10:0.2:rejoin=5"),
                stop_at_convergence=False,
            ),
        )
        counted = {"step": 0, "maintain": 0}
        for rule in counted:
            inner = getattr(simulation.algorithm, rule)

            def wrapper(node, inner=inner, rule=rule):
                counted[rule] += 1
                return inner(node)

            setattr(simulation.algorithm, rule, wrapper)
        simulation.run()
        assert simulation.now == rounds
        calls = simulation.timings.calls
        for phase in ("churn", "oracle", "faults", "measure"):
            assert calls[phase] == rounds, phase
        assert counted["step"] and counted["maintain"]
        assert calls["step"] == counted["step"]
        assert calls["maintain"] == counted["maintain"]

    def test_phase_timings_exempt_from_equality(self):
        a = run_simulation(make("Rand", size=15, seed=2), SimulationConfig(seed=2))
        b = run_simulation(make("Rand", size=15, seed=2), SimulationConfig(seed=2))
        assert a.phase_timings != {} and b.phase_timings != {}
        assert a == b  # wall-clock noise must never break result equality


class TestSchedulerPending:
    """The O(1) live pending counter on the event scheduler."""

    def test_pending_tracks_schedule_cancel_fire(self):
        scheduler = EventScheduler()
        handles = [scheduler.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert scheduler.pending == 5
        handles[0].cancel()
        assert scheduler.pending == 4
        handles[0].cancel()  # double-cancel must not double-decrement
        assert scheduler.pending == 4
        scheduler.step()  # fires the first live event
        assert scheduler.pending == 3
        scheduler.run()
        assert scheduler.pending == 0

    def test_cancel_after_fire_is_a_noop(self):
        scheduler = EventScheduler()
        handle = scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        assert scheduler.pending == 0
        handle.cancel()
        assert scheduler.pending == 0
        assert not handle.cancelled  # it fired; cancellation never applied

    def test_pending_consistent_under_interleaving(self):
        scheduler = EventScheduler()
        handles = []

        def spawn():
            handles.append(scheduler.schedule(1.0, lambda: None))

        scheduler.schedule(1.0, spawn)
        scheduler.schedule(2.0, spawn)
        scheduler.run_until(2.5)
        # Both spawned events (at 2.0 and 3.0): one fired, one pending.
        assert scheduler.pending == 1
        assert scheduler.fired == 3
        handles[-1].cancel()
        assert scheduler.pending == 0

    def test_negative_delay_still_rejected(self):
        with pytest.raises(ConfigurationError):
            EventScheduler().schedule(-0.1, lambda: None)


class TestCliObservability:
    def test_build_trace_out_then_summarize(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        code = main(
            [
                "build",
                "--workload",
                "Rand",
                "--size",
                "25",
                "--seed",
                "3",
                "--churn",
                "--trace-out",
                path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "events to" in out
        code = main(["obs", "summarize", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "attach-accept" in out
        assert "phase" in out and "seconds" in out
        assert "oracle.response_size" in out

    def test_fault_counters_surface_in_summarize(self, tmp_path, capsys):
        path = str(tmp_path / "chaos.jsonl")
        code = main(
            [
                "build",
                "--workload",
                "Rand",
                "--size",
                "25",
                "--seed",
                "3",
                "--max-rounds",
                "250",
                "--faults",
                "crash@40:0.2,source-outage@60:5",
                "--trace-out",
                path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault events" in out
        code = main(["obs", "summarize", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "fault-injected" in out
        assert "faults.mass-crash" in out
        assert "source.contact_" in out

    def test_summarize_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["obs"])
