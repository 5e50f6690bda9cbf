"""``repro.spec``: the text form round-trips for any valid spec, a
malformed one names its field, and one spec gives one outcome through
``repro build --paths 2``, the sweep worker and ``run()``; ``paths > 1``
with asynchrony is refused, ``ms`` windows resolve per run
kind, and the stop rule follows the fault plan."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.locality.geo import get_profile
from repro.oracles.base import oracle_names
from repro.par import SweepItem, execute_item
from repro.sim.asynchrony import AsynchronyConfig
from repro.sim.runner import SimulationConfig
from repro.spec import STOP_RULES, RunSpec, run
from repro.workloads import family_names

GEO = "continuous:geo-3region"
FAULTS = st.sampled_from(("crash@20:0.3:rejoin=10", "leave@15:0.2, crash@40:0.15"))
#: Candidate values per field, by run kind; a spec draws some of them.
SHARED = {
    "size": st.integers(1, 5000),
    "time_model": st.sampled_from(("rounds", GEO)),
    "faults": FAULTS,
    "rounds": st.integers(1, 10_000),
}
CONSTRUCTION = {
    **SHARED,
    "workload": st.sampled_from(family_names()),
    "workload_seed": st.integers(0, 2**32),
    "source_fanout": st.integers(1, 40),
    "max_latency": st.integers(1, 60),
    "min_fanout": st.integers(1, 4),
    "max_fanout": st.integers(4, 12),
    "algorithm": st.sampled_from(("greedy", "hybrid")),
    "oracle": st.sampled_from(oracle_names()),
    "oracle_realization": st.sampled_from(("dht", "sharded", "random-walk")),
    "harden": st.booleans(),
    "churn": st.booleans(),
    "asynchrony": st.sampled_from(("1:4", "2:2")),
    "paths": st.integers(2, 3),
    "stop": st.sampled_from(STOP_RULES),
}
SOAK = {
    **SHARED,
    "feeds": st.sampled_from(("news", "news,sports,tech")),
    "timeline": st.sampled_from(("flash@4:news:x4:ramp=2", "exodus@3:news:0.4")),
    "warmup": st.integers(0, 2),
    "publish_rate": st.floats(0.01, 10.0),
    "burst_size": st.integers(1, 10),
    "pull_period": st.floats(0.1, 10.0),
    "reuse_bias": st.floats(0.0, 1.0),
    "recover_threshold": st.floats(0.01, 1.0),
}


@st.composite
def specs(draw) -> RunSpec:
    """A valid spec of either kind: combinations the engine configs
    refuse (paths > 1 with asynchrony, a timeline past the soak's end, ...)
    are drawn again."""
    table = draw(st.sampled_from((CONSTRUCTION, SOAK)))
    names = draw(st.sets(st.sampled_from(sorted(table))))
    if table is SOAK:
        names |= {"feeds", "rounds"}
    values = {name: draw(table[name]) for name in sorted(names)}
    try:
        return RunSpec(**values)
    except ConfigurationError:
        assume(False)


class TestTextForm:
    @settings(max_examples=150, deadline=None)
    @given(spec=specs())
    def test_parse_of_str_is_the_spec(self, spec):
        assert RunSpec.parse(str(spec)) == spec

    def test_defaults_are_omitted_in_field_order(self):
        spec = RunSpec.parse("rounds=120;churn=1;size=36;algorithm=hybrid")
        assert str(spec) == "size=36;churn=1;rounds=120"
        assert str(RunSpec()) == ""

    @pytest.mark.parametrize(
        "text,field",
        [
            ("size=36;colour=blue", "colour"), ("size=36;size=40", "size"),
            ("size", "size"), ("size=many", "size"), ("churn=yes", "churn"),
            ("faults=crash@x:0.2", "faults"), ("faults=crash@500ms:0.2", "faults"),
            ("feeds=news;timeline=meteor@10:news", "timeline"),
            ("time-model=continuous:nowhere", "time-model"),
            ("asynchrony=4", "asynchrony"), ("stop=never", "stop"),
            ("workload=Tf1;max-latency=40", "workload"), ("workload=Nope", "workload"),
            ("warmup=10", "warmup"), ("feeds=news;churn=1", "churn"),
        ],
    )
    def test_malformed_spec_names_its_field(self, text, field):
        with pytest.raises(ConfigurationError, match=f"^{field}: "):
            RunSpec.parse(text)

    def test_engine_configs_validate_the_run(self):
        with pytest.raises(ConfigurationError, match="single-overlay"):
            RunSpec.parse("asynchrony=1:4;paths=2")
        with pytest.raises(ConfigurationError, match="warmup"):
            RunSpec.parse("feeds=news;warmup=50;rounds=40")


class TestRun:
    CLI_FLAGS = "build --size 30 --seed 4 --paths 2 --max-rounds 60".split()
    SPEC = "size=30;faults=crash@15:0.2:rejoin=8;paths=2;rounds=60"

    def test_one_spec_through_cli_worker_and_run(self, capsys):
        spec = RunSpec.parse(self.SPEC)
        direct = run(spec, 4)
        assert direct.rounds_run == 60  # a fault plan runs the budget
        item = SweepItem(family="Rand", config=spec.config(4), population=30, seed=4)
        outcome = execute_item(item, memo={})
        assert outcome.ok, outcome.error
        assert outcome.result == direct.summary()
        flags = self.CLI_FLAGS + ["--faults", "crash@15:0.2:rejoin=8"]
        assert main(flags) == (0 if direct.converged else 1)
        lines = capsys.readouterr().out.splitlines()
        row = lines[lines.index(next(l for l in lines if l.startswith("paths"))) + 2]
        assert [cell.strip() for cell in row.split("|")] == [
            "2",
            str(direct.converged),
            str(direct.construction_rounds),
            f"{direct.delivery_availability:.1%}",
            str(direct.overlap_repairs),
        ]

    @pytest.mark.parametrize(
        "setting",
        [{"time_model": GEO}, {"asynchrony": AsynchronyConfig()}],
    )
    def test_multipath_config_refuses_single_overlay_models(self, setting):
        with pytest.raises(ConfigurationError, match="single-overlay"):
            SimulationConfig(paths=2, **setting)

    def test_worker_refuses_a_multipath_item_with_asynchrony(self):
        config = RunSpec(paths=2, rounds=40).config(0)
        # As an item pickled before the check existed would carry it.
        object.__setattr__(config, "asynchrony", AsynchronyConfig())
        outcome = execute_item(
            SweepItem(family="Rand", config=config, population=20, seed=0), memo={}
        )
        assert outcome.result is None
        assert "single-overlay" in outcome.error

    def test_ms_windows_resolve_per_run_kind(self):
        profile = get_profile("geo-3region")
        text = f"time-model={GEO};faults=crash@6000ms:0.2"
        build = RunSpec.parse(text).fault_plan().specs[0].round
        soak = RunSpec.parse(f"feeds=news;{text};rounds=120").fault_plan()
        assert build == round(6000 / profile.round_ms)
        assert soak.specs[0].round == round(6000 / profile.pull_period_ms)

    @pytest.mark.parametrize(
        "text,stops",
        [("", True), ("faults=crash@20:0.2", False), ("stop=budget", False)],
    )
    def test_stop_rule(self, text, stops):
        assert RunSpec.parse(text).config(0).stop_at_convergence is stops
