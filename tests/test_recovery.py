"""The one recovery tracker against a reference.

:class:`~repro.sim.metrics.RecoveryTracker` serves a single overlay,
each path and the delivery of a multipath run, and a soak's feeds.
Each case below runs the real thing, reads every round's "whole?"
reading off the run independently of the tracker, and recomputes the
figures with the rules the tracker replaced:

* the recovery-series scan: for each disruption ``d``, the first
  measured round ``>= d`` that is whole;
* the soak's reset rule: a disruption clears the recovery, and the
  first whole round that nothing disrupted sets it again; the hot feed
  re-converges in the first whole round after its flash crowd.

The plan and timeline make every edge show: a fault that never dents
convergence (series entry 0), a fault never recovered from (``None``),
two faults in one round, a timeline act and a fault in one soak round,
and a disruption inside the flash crowd's recovery window in a round
where the hot feed is already whole.
"""

import pytest

from repro.core.convergence import measure
from repro.faults import parse_fault_plan
from repro.multifeed.soak import ServiceSoak, SoakConfig, parse_timeline
from repro.multipath import MultipathSystem
from repro.obs import RecordingProbe
from repro.sim.runner import Simulation, SimulationConfig
from repro.workloads import make

#: A stale view on a converged overlay (entry 0), a crash and a source
#: outage in one round, and a crash in the last round (``None``).
PLAN = "stale-view@60:2:1, crash@70:0.2, source-outage@70:3, crash@120:0.5"
ROUNDS = 120


def scan_series(disruptions, readings):
    """Per disruption, rounds to the first whole reading at or after it."""
    return [
        next((now - d for now, whole in readings if now >= d and whole), None)
        for d in disruptions
    ]


def worst(series):
    return None if not series or None in series else max(series)


def recovery_events(disruptions, series):
    return [
        (d + rounds, d, rounds)
        for d, rounds in zip(disruptions, series)
        if rounds is not None
    ]


def recovery_events_of(probe):
    return [
        (e.round, e.fault_round, e.rounds) for e in probe.events_of("recovery")
    ]


def reset_rule(disruptions, readings):
    """The soak's rule: (last disruption, rounds to recover from it)."""
    recovered = None
    for now, whole in readings:
        if now in disruptions:
            recovered = None
        elif whole and recovered is None and min(disruptions) < now:
            recovered = now
    last = max(disruptions)
    return last, None if recovered is None else recovered - last


def _edges(series):
    assert 0 in series and None in series
    assert worst(series) is None


def single_overlay():
    probe = RecordingProbe()
    config = SimulationConfig(
        seed=3,
        max_rounds=ROUNDS,
        stop_at_convergence=False,
        faults=parse_fault_plan(PLAN),
        probe=probe,
    )
    simulation = Simulation(make("Rand", size=30, seed=3), config)
    result = simulation.run()
    faults = simulation.injector.fault_rounds
    assert faults == [60, 70, 70, ROUNDS]
    readings = [
        (r.round, r.quality.converged) for r in simulation.metrics.records
    ]
    series = scan_series(faults, readings)
    _edges(series)
    return [
        (result.recovery_series, series),
        (result.time_to_recover, worst(series)),
        (result.fault_events, len(faults)),
        (recovery_events_of(probe), recovery_events(faults, series)),
    ]


def two_paths():
    probe = RecordingProbe()
    system = MultipathSystem(
        make("Rand", size=30, seed=3),
        paths=2,
        seed=3,
        faults=parse_fault_plan(PLAN),
        probe=probe,
    )
    system.run(max_rounds=ROUNDS)
    result = system.result()
    faults = system.injector.fault_rounds
    checks = []
    expected_events = []
    for path, collector in enumerate(system.collectors):
        readings = [(r.round, r.quality.converged) for r in collector.records]
        series = scan_series(faults, readings)
        _edges(series)
        per_path = result.per_path[path]
        checks += [
            (per_path.recovery_series, series),
            (per_path.time_to_recover, worst(series)),
            (per_path.fault_events, len(faults)),
        ]
        expected_events += recovery_events(faults, series)
    # Delivery: whole when every online consumer has a rooted chain; it
    # emits no Recovery events.
    readings = [
        (now, delivered == online)
        for now, delivered, online in system._delivery_rows
    ]
    series = scan_series(faults, readings)
    assert 0 in series
    return checks + [
        (result.delivery_recovery_series, series),
        (result.time_to_recover, worst(series)),
        (result.fault_events, len(faults)),
        (sorted(recovery_events_of(probe)), sorted(expected_events)),
    ]


def three_feed_soak():
    config = SoakConfig(
        consumer_count=36,
        seed=11,
        rounds=70,
        warmup_rounds=20,
        timeline=parse_timeline(
            "flash@30:news:x4:ramp=2,exodus@33:sports:0.4,rejoin@45:sports,"
            "exodus@60:tech:0.5"
        ),
        faults=parse_fault_plan("crash@45:0.1:rejoin=5, oracle-outage@55:2"),
    )
    soak = ServiceSoak(config, probe=RecordingProbe())
    system_readings, hot_readings = [], []
    sample = soak._sample

    def read_after_sample(now):
        sample(now)
        fractions = {
            feed: measure(overlay).satisfied_fraction
            for feed, overlay in soak.system.overlays.items()
        }
        threshold = config.recover_threshold
        system_readings.append((now, min(fractions.values()) >= threshold))
        hot_readings.append((now, fractions[config.hot_feed] >= threshold))

    soak._sample = read_after_sample
    summary = soak.run()
    acts = [act.round for act in config.timeline]
    disruptions = sorted(acts + soak.injector.fault_rounds)
    assert 45 in acts and 45 in soak.injector.fault_rounds
    assert max(acts) > max(soak.injector.fault_rounds)
    flash = acts[0]
    hot_reconverged = next(
        now for now, whole in hot_readings if now > flash and whole
    )
    # The exodus lands inside the flash's recovery window, in a round
    # the hot feed is already whole again: it recovers there.
    assert hot_reconverged == acts[1]
    assert soak.probe.events_of("recovery") == []
    return [
        (soak.recovery.disruptions, disruptions),
        (
            (summary.last_disruption_round, summary.time_to_recover),
            reset_rule(disruptions, system_readings),
        ),
        (summary.hot_reconverge_rounds, hot_reconverged - flash),
    ]


@pytest.mark.parametrize(
    "case",
    [single_overlay, two_paths, three_feed_soak],
    ids=["single", "2-paths", "3-feed-soak"],
)
def test_tracker_matches_the_reference(case):
    for got, expected in case():
        assert got == expected
