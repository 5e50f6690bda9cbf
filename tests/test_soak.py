"""Tests for the multi-feed service soak (``repro serve-soak``)."""

import dataclasses
import hashlib
import json

import pytest

import repro.core.convergence as convergence
from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.faults import (
    CrashNodes,
    FaultPlan,
    NullFaultPlan,
    parse_fault_plan,
)
from repro.multifeed.soak import (
    FlashCrowd,
    MassExodus,
    Rejoin,
    ServiceSoak,
    SoakConfig,
    parse_timeline,
    run_soak,
)
from repro.obs import NULL_PROBE, RecordingProbe, event_from_dict
from repro.par import Task, make_executor

TIMELINE = parse_timeline(
    "flash@30:news:x4:ramp=2,exodus@50:sports:0.4,rejoin@60:sports"
)


def quick_config(**kwargs):
    defaults = dict(
        consumer_count=36,
        seed=11,
        rounds=70,
        warmup_rounds=20,
        timeline=TIMELINE,
    )
    defaults.update(kwargs)
    return SoakConfig(**defaults)


class TestTimelineDSL:
    def test_flash_defaults(self):
        (act,) = parse_timeline("flash@40:news")
        assert act == FlashCrowd(round=40, feed="news")
        assert act.multiplier == 10.0 and act.ramp_rounds == 3

    def test_flash_explicit(self):
        (act,) = parse_timeline("flash@40:news:x5:ramp=7")
        assert act.multiplier == 5.0 and act.ramp_rounds == 7

    def test_exodus_graceful_and_crash(self):
        graceful, crash = parse_timeline(
            "exodus@10:tech:0.5,exodus@20:tech:0.25:crash"
        )
        assert graceful == MassExodus(round=10, feed="tech", fraction=0.5)
        assert crash.graceful is False and crash.fraction == 0.25

    def test_rejoin(self):
        (act,) = parse_timeline("rejoin@99:sports")
        assert act == Rejoin(round=99, feed="sports")

    def test_acts_sorted_by_round(self):
        acts = parse_timeline("rejoin@30:a,flash@10:a,exodus@20:a:0.5")
        assert [act.round for act in acts] == [10, 20, 30]

    def test_rejects_unknown_act(self):
        with pytest.raises(ConfigurationError):
            parse_timeline("meteor@10:news")

    def test_rejects_malformed_chunks(self):
        for bad in ("flash@x:news", "flash@10", "exodus@10:news",
                    "flash@10:news:zoom", "", "   ,  "):
            with pytest.raises(ConfigurationError):
                parse_timeline(bad)


class TestSoakConfig:
    def test_requires_service_phase(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(rounds=10, warmup_rounds=10)

    def test_rejects_unknown_timeline_feed(self):
        with pytest.raises(ConfigurationError):
            quick_config(timeline=parse_timeline("flash@30:nosuch"))

    def test_rejects_act_round_outside_run(self):
        with pytest.raises(ConfigurationError):
            quick_config(timeline=parse_timeline("flash@900:news"))

    def test_rejects_bad_threshold_and_cadence(self):
        with pytest.raises(ConfigurationError):
            quick_config(recover_threshold=0.0)
        with pytest.raises(ConfigurationError):
            quick_config(health_every=0)

    def test_rejects_non_plan_faults(self):
        with pytest.raises(ConfigurationError):
            quick_config(faults="crash@10:0.5")

    def test_hot_feed_is_flash_target_or_first(self):
        assert quick_config().hot_feed == "news"
        assert quick_config(timeline=()).hot_feed == "news"
        sports_flash = parse_timeline("flash@30:sports:x3")
        assert quick_config(timeline=sports_flash).hot_feed == "sports"

    def test_config_is_picklable_and_value_equal(self):
        import pickle

        config = quick_config(faults=parse_fault_plan("crash@30:0.2"))
        assert pickle.loads(pickle.dumps(config)) == config


class TestTimelineMechanics:
    def test_flash_crowd_multiplies_audience(self):
        soak = ServiceSoak(quick_config())
        base = len(soak.system.subscriber_names("news", online_only=True))
        soak.run()
        # x4 means roughly 3x the base audience joins (max 1 guard aside).
        assert soak.flash_joined == max(1, round(base * 3.0))
        after = len(soak.system.subscriber_names("news", online_only=True))
        assert after >= base + soak.flash_joined - 2

    def test_flash_joiners_declare_patient_constraints(self):
        soak = ServiceSoak(quick_config())
        soak.run()
        patient = (soak.config.max_latency + 1) // 2
        joiners = [
            spec
            for name, spec in soak.system._feed_specs["news"].items()
            if name.startswith("fc")
        ]
        assert joiners
        assert all(spec.latency >= patient for spec in joiners)

    def test_flash_ramp_spreads_arrivals(self):
        timeline = parse_timeline("flash@30:news:x4:ramp=3")
        probe = RecordingProbe()
        ServiceSoak(quick_config(timeline=timeline), probe).run()
        (phase,) = probe.events_of("soak-phase")
        assert phase.phase == "flash-crowd"
        # The announced magnitude covers the whole ramp, not one chunk.
        assert phase.affected >= 3

    def test_exodus_takes_audience_offline(self):
        timeline = parse_timeline("exodus@30:sports:0.5")
        soak = ServiceSoak(quick_config(timeline=timeline, rounds=40))
        before = len(soak.system.subscriber_names("sports", online_only=True))
        soak.run()
        after = len(soak.system.subscriber_names("sports", online_only=True))
        assert soak.exodus_departures == max(1, round(before * 0.5))
        assert after == before - soak.exodus_departures

    def test_rejoin_brings_everyone_back(self):
        timeline = parse_timeline("exodus@30:sports:0.6,rejoin@35:sports")
        soak = ServiceSoak(quick_config(timeline=timeline, rounds=50))
        before = len(soak.system.subscriber_names("sports", online_only=True))
        soak.run()
        after = len(soak.system.subscriber_names("sports", online_only=True))
        assert after == before

    def test_crash_exodus_is_ungraceful(self):
        timeline = parse_timeline("exodus@30:news:0.4:crash")
        probe = RecordingProbe()
        ServiceSoak(quick_config(timeline=timeline, rounds=45), probe).run()
        (phase,) = probe.events_of("soak-phase")
        assert phase.phase == "exodus-crash"


class TestSummary:
    def test_summary_shape(self):
        summary = run_soak(quick_config())
        assert summary.rounds == 70 and summary.service_rounds == 50
        assert {stats.feed for stats in summary.feeds} == {
            "news", "sports", "tech",
        }
        assert 0.0 <= summary.availability <= 1.0
        for stats in summary.feeds:
            assert stats.delivered > 0
            assert 0.0 <= stats.p50 <= stats.p99 <= stats.p999 <= stats.worst
        assert summary.feed_stats("news").feed == "news"
        with pytest.raises(KeyError):
            summary.feed_stats("nosuch")

    def test_hot_feed_reconverges_after_flash(self):
        summary = run_soak(quick_config())
        assert summary.hot_feed == "news"
        assert summary.flash_joined > 0
        assert summary.hot_reconverge_rounds is not None
        assert summary.hot_p99_after > 0.0

    def test_recovery_after_last_disruption(self):
        summary = run_soak(quick_config())
        assert summary.last_disruption_round == 60
        assert summary.time_to_recover is not None
        assert summary.time_to_recover >= 1

    def test_undisturbed_soak_reports_no_disruption(self):
        summary = run_soak(quick_config(timeline=()))
        assert summary.last_disruption_round is None
        assert summary.time_to_recover is None
        assert summary.flash_joined == 0
        assert summary.hot_reconverge_rounds is None


class TestDeterminism:
    def test_golden_seed_repeatability(self):
        config = quick_config(faults=parse_fault_plan("source-outage@40:4"))
        assert run_soak(config) == run_soak(config)

    def test_serial_equals_pooled(self):
        configs = [quick_config(seed=seed) for seed in (1, 2)]
        serial = [run_soak(config) for config in configs]
        outcomes = make_executor(2).run_tasks(
            [Task(run_soak, (config,)) for config in configs]
        )
        assert all(outcome.ok for outcome in outcomes)
        assert [outcome.value for outcome in outcomes] == serial

    def test_null_fault_plan_equals_no_plan(self):
        bare = run_soak(quick_config(faults=None))
        nulled = run_soak(quick_config(faults=NullFaultPlan()))
        assert dataclasses.replace(bare, faults_injected=0) == dataclasses.replace(
            nulled, faults_injected=0
        )
        assert bare.faults_injected == nulled.faults_injected == 0

    def test_probe_does_not_influence_outcome(self):
        config = quick_config(faults=parse_fault_plan("crash@40:0.2:rejoin=8"))
        observed = ServiceSoak(config, RecordingProbe()).run()
        unobserved = ServiceSoak(config, NULL_PROBE).run()
        assert observed == unobserved


class TestSamplingCost:
    def test_run_makes_no_forest_scan(self, monkeypatch):
        """Every feed is sampled every round off the chain index's
        quality counters; the forest scan is the integrity reference."""
        faults = parse_fault_plan("crash@40:0.2:rejoin=8")
        soak = ServiceSoak(quick_config(faults=faults))
        scans = []
        scan = convergence._forest_scan
        monkeypatch.setattr(
            convergence, "_forest_scan", lambda o: scans.append(o) or scan(o)
        )
        soak.run()
        assert scans == []
        for overlay in soak.system.overlays.values():
            overlay.check_integrity()
        assert len(scans) == len(soak.system.overlays)


def geo_smoke_config(seed: int) -> SoakConfig:
    """The smoke-scale geo soak: flash joiners, an exodus, a rejoin, a
    crash wave that rejoins and a source outage on the continuous clock."""
    return SoakConfig(
        feed_ids=("news", "sports", "tech"),
        consumer_count=40,
        seed=seed,
        rounds=90,
        warmup_rounds=24,
        timeline=parse_timeline(
            "flash@36:news:x10:ramp=3,exodus@60:news:0.4,rejoin@70:news"
        ),
        faults=parse_fault_plan("crash@50:0.15:rejoin=8,source-outage@76:4"),
        time_model="continuous:geo-3region",
    )


class TestGeoSoakPins:
    """Seeded outcomes of the geo soak, recorded before the delivery
    path (argument-carrying events, the in-order batch fast path, the
    per-edge hop-delay cache, the one-pass summary) was made cheaper:
    a mismatch means that work changed what the soak measures."""

    @pytest.mark.parametrize(
        "seed,digest",
        [(0, "b83715c83aab4a3b"), (1, "2b075388f6feeb57"), (2, "05af570b8ca05af6")],
    )
    def test_summary_digest(self, seed, digest):
        summary = ServiceSoak(geo_smoke_config(seed)).run()
        text = json.dumps(dataclasses.asdict(summary), sort_keys=True, default=repr)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_cached_hop_delay_equals_the_geo_model(self):
        soak = ServiceSoak(geo_smoke_config(0))
        period_ms = soak.geo_profile.pull_period_ms
        calls = []

        def checked(feed, model):
            def hop_delay_model(parent, child):
                units = model(parent, child)
                expected = soak.geo.one_way_ms(parent.name, child.name) / period_ms
                assert units == expected
                calls.append((feed, parent, child))
                return units

            return hop_delay_model

        for feed, engine in soak.engines.items():
            engine.hop_delay_model = checked(feed, engine.hop_delay_model)
        summary = soak.run()
        assert summary.flash_joined > 0 and summary.exodus_departures > 0
        # Each engine asks the model once per edge of its overlay; edges
        # are pushed over again and again, so its cache serves the rest.
        assert len(calls) == len(set(calls)) > 0
        pushes = sum(engine.pushes for engine in soak.engines.values())
        assert pushes > 2 * len(calls)


class TestObservability:
    def test_soak_phase_and_health_events_recorded(self):
        probe = RecordingProbe()
        ServiceSoak(quick_config(), probe).run()
        phases = [e.phase for e in probe.events_of("soak-phase")]
        assert phases == ["flash-crowd", "exodus", "rejoin"]
        health = probe.events_of("feed-health")
        assert health
        assert {e.feed for e in health} == {"news", "sports", "tech"}
        sample = health[-1]
        assert sample.online >= sample.rooted >= sample.satisfied >= 0
        assert sample.deliveries >= 0

    def test_new_events_round_trip(self):
        probe = RecordingProbe()
        ServiceSoak(quick_config(), probe).run()
        for kind in ("soak-phase", "feed-health"):
            event = probe.events_of(kind)[0]
            payload = json.loads(json.dumps(event.to_dict()))
            assert event_from_dict(payload) == event

    def test_health_cadence_follows_config(self):
        probe = RecordingProbe()
        ServiceSoak(quick_config(timeline=(), health_every=10), probe).run()
        rounds = {e.round for e in probe.events_of("feed-health")}
        assert rounds and all(r % 10 == 0 for r in rounds)


def test_crash_nodes_indexes_shared_population():
    """A CrashNodes id is a 1-based position in the shared population."""
    plan = FaultPlan.of(CrashNodes(round=1, node_ids=(1, 2)))
    soak = ServiceSoak(quick_config(timeline=(), faults=plan))
    soak.run()
    system = soak.system
    for index, name in enumerate(system.consumers):
        for feed in system.subscriptions[name]:
            assert system.members([feed]).is_online(name) == (index >= 2)


class TestServeSoakCLI:
    ARGS = [
        "serve-soak", "--consumers", "24", "--rounds", "40",
        "--warmup", "12", "--timeline", "flash@20:news:x3:ramp=2",
    ]

    def test_smoke(self, capsys):
        assert main(self.ARGS + ["--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "flash crowd" in out
        assert "reuse:" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "soak.json"
        assert main(self.ARGS + ["--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert len(payload) == 1
        assert {f["feed"] for f in payload[0]["feeds"]} == {
            "news", "sports", "tech",
        }

    def test_repeats_with_workers_match_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        base = self.ARGS + ["--repeats", "2", "--timeline", "none"]
        assert main(base + ["--json", str(serial)]) == 0
        assert main(base + ["--workers", "2", "--json", str(pooled)]) == 0
        assert json.loads(serial.read_text()) == json.loads(pooled.read_text())

    def test_trace_out_carries_soak_events(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(self.ARGS + ["--trace-out", str(path)]) == 0
        kinds = {
            json.loads(line).get("kind")
            for line in path.read_text().splitlines()
        }
        assert "soak-phase" in kinds and "feed-health" in kinds

    def test_bad_timeline_exits_2(self, capsys):
        assert main(["serve-soak", "--timeline", "meteor@10:news"]) == 2
        assert "error" in capsys.readouterr().err


class TestQuickSoakSLO:
    """The soak's hot-feed SLO at quick scale (the ``quick/soak.service``
    ledger row pins its numbers): a 10x flash crowd, an exodus and a
    source outage over 40 consumers."""

    CONFIG = quick_config(
        consumer_count=40,
        seed=0,
        rounds=90,
        warmup_rounds=24,
        timeline=parse_timeline("flash@36:news:x10:ramp=3,exodus@60:news:0.4"),
        faults=parse_fault_plan("source-outage@48:4"),
    )

    def test_hot_feed_reconverges_inside_its_slo(self):
        summary = run_soak(self.CONFIG)
        assert summary.hot_reconverge_rounds is not None
        assert summary.hot_p99_after <= self.CONFIG.max_latency + 2
        assert summary.time_to_recover is not None

    def test_a_flash_at_the_end_never_reconverges(self):
        # Flash lands 4 rounds before the end: no time to re-converge.
        config = dataclasses.replace(
            self.CONFIG, timeline=parse_timeline("flash@86:news:x10:ramp=1")
        )
        assert run_soak(config).hot_reconverge_rounds is None


@pytest.mark.soak
class TestLongSoak:
    """The full-scale scenario; excluded from tier-1 (``-m soak``)."""

    def test_ten_x_flash_crowd_full_scale(self):
        config = SoakConfig(
            consumer_count=150,
            seed=0,
            rounds=200,
            warmup_rounds=40,
            timeline=parse_timeline(
                "flash@60:news:x10:ramp=3,exodus@120:news:0.5,rejoin@140:news"
            ),
            faults=parse_fault_plan(
                "crash@100:0.15:rejoin=12,source-outage@150:6"
            ),
        )
        summary = run_soak(config)
        assert summary.hot_reconverge_rounds is not None
        assert summary.hot_p99_after <= config.max_latency + 2
        assert summary.time_to_recover is not None
        assert summary.availability > 0.8
        assert run_soak(config) == summary
