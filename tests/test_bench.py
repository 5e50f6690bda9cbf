"""Tests for the benchmark harness core (:mod:`repro.bench`).

Covers the registry (registration, tag selection, dotted metric-spec
fallback, duplicate rejection), the shared runner (warmup/repeat
accounting, median/IQR stats, environment fingerprint, failure
propagation, cProfile mode), the normalized record schema, and the
append-only history file.

The real suites are exercised end-to-end by ``tests/test_bench_cli.py``
(they are sub-second at --quick scale); these tests use toy benchmarks
so every assertion is exact.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    BenchContext,
    BenchResult,
    BenchmarkRegistry,
    Metric,
    RunnerConfig,
    append_history,
    fingerprint,
    fingerprints_match,
    history_record,
    latest_by_name,
    load_suites,
    read_history,
    run_benchmark,
    run_benchmarks,
    validate_record,
)
from repro.core.errors import ConfigurationError


def toy_registry() -> BenchmarkRegistry:
    registry = BenchmarkRegistry()
    calls = {"count": 0}

    @registry.register(
        "toy.counter",
        tags=("toy", "fast"),
        metrics={"value": Metric(unit="widgets", tolerance=0.1)},
        repeats=3,
        warmup=2,
        description="deterministic counting benchmark",
    )
    def toy_counter(ctx: BenchContext) -> BenchResult:
        calls["count"] += 1
        return BenchResult(
            metrics={"value": float(calls["count"])},
            detail={"calls": calls["count"], "quick": ctx.quick},
        )

    @registry.register("toy.plain", tags=("toy",))
    def toy_plain(ctx: BenchContext):
        """Plain-mapping return is accepted too."""
        return {"answer": 42.0}

    @registry.register("toy.failing", tags=("broken",))
    def toy_failing(ctx: BenchContext) -> BenchResult:
        return BenchResult(
            metrics={"x": 1.0}, failures=("synthetic hard failure",)
        )

    registry.calls = calls  # type: ignore[attr-defined]
    return registry


class TestRegistry:
    def test_names_sorted_and_lookup(self):
        registry = toy_registry()
        assert registry.names() == ["toy.counter", "toy.failing", "toy.plain"]
        assert registry.get("toy.plain").description.startswith(
            "Plain-mapping return"
        )
        assert "toy.counter" in registry and "nope" not in registry

    def test_unknown_name_names_known_ones(self):
        registry = toy_registry()
        with pytest.raises(ConfigurationError) as exc:
            registry.get("nope")
        assert "toy.counter" in str(exc.value)

    def test_duplicate_registration_rejected(self):
        registry = toy_registry()
        with pytest.raises(ConfigurationError):

            @registry.register("toy.counter")
            def clash(ctx):
                return {}

    def test_select_by_tag_name_and_default_all(self):
        registry = toy_registry()
        assert [b.name for b in registry.select()] == registry.names()
        assert [b.name for b in registry.select(tags=["fast"])] == [
            "toy.counter"
        ]
        # Names and tags union, deduplicated, name-ordered.
        selected = registry.select(names=["toy.plain"], tags=["fast"])
        assert [b.name for b in selected] == ["toy.counter", "toy.plain"]

    def test_metric_spec_dotted_fallback(self):
        registry = BenchmarkRegistry()

        @registry.register(
            "grid",
            metrics={
                "rounds": Metric(higher_is_better=False, deterministic=True),
                "rounds.special": Metric(tolerance=0.5),
            },
        )
        def grid(ctx):
            return {}

        bench = registry.get("grid")
        assert bench.metric_spec("rounds.Rand.random").higher_is_better is False
        assert bench.metric_spec("rounds.special").tolerance == 0.5
        # Longest declared prefix wins.
        assert bench.metric_spec("rounds.special.case").tolerance == 0.5
        # Undeclared names fall back to the default spec.
        assert bench.metric_spec("other") == Metric()


class TestRunner:
    def test_warmup_and_repeats_accounting(self):
        registry = toy_registry()
        record = run_benchmark(registry.get("toy.counter"))
        # 2 warmup calls discarded, 3 measured: values are 3, 4, 5.
        assert record["repeats"] == 3 and record["warmup"] == 2
        assert record["metrics"]["value"]["values"] == [3.0, 4.0, 5.0]
        assert record["metrics"]["value"]["median"] == 4.0
        assert record["metrics"]["value"]["iqr"] == pytest.approx(1.0)
        assert record["metrics"]["value"]["unit"] == "widgets"
        assert record["detail"]["calls"] == 5  # detail is the last repeat's
        validate_record(record)

    def test_overrides_and_context_plumbing(self):
        registry = toy_registry()
        config = RunnerConfig(quick=True, repeats=1, warmup=0)
        record = run_benchmark(registry.get("toy.counter"), config)
        assert record["quick"] is True
        assert record["detail"]["quick"] is True  # context reached the bench
        assert record["repeats"] == 1 and record["warmup"] == 0
        assert record["metrics"]["value"]["values"] == [1.0]

    def test_failures_deduplicated_and_surfaced(self):
        registry = toy_registry()
        record = run_benchmark(
            registry.get("toy.failing"), RunnerConfig(repeats=3)
        )
        assert record["failures"] == ["synthetic hard failure"]

    def test_env_fingerprint_embedded(self):
        registry = toy_registry()
        record = run_benchmark(registry.get("toy.plain"))
        env = record["env"]
        for key in ("python", "platform", "machine", "cpu_count"):
            assert env[key]
        match, mismatched = fingerprints_match(env, fingerprint())
        assert match and mismatched == []

    def test_fingerprint_mismatch_reports_keys(self):
        env = fingerprint()
        other = dict(env, cpu_count=env["cpu_count"] + 1, python="0.0.0")
        match, mismatched = fingerprints_match(env, other)
        assert not match and set(mismatched) == {"cpu_count", "python"}
        # A missing side mismatches everything.
        assert fingerprints_match(None, env)[0] is False

    def test_profile_mode_embeds_table(self):
        registry = toy_registry()
        record = run_benchmark(
            registry.get("toy.plain"), RunnerConfig(profile=True, profile_top=5)
        )
        assert record["profile"]
        assert any("ncalls" in line for line in record["profile"])

    def test_run_benchmarks_progress_order(self):
        registry = toy_registry()
        seen = []
        records = run_benchmarks(
            registry.select(tags=["toy"]),
            RunnerConfig(repeats=1, warmup=0),
            progress=lambda record: seen.append(record["name"]),
        )
        assert seen == ["toy.counter", "toy.plain"]
        assert [r["name"] for r in records] == seen


class TestSchemaAndHistory:
    def test_validate_rejects_missing_keys(self):
        registry = toy_registry()
        record = run_benchmark(registry.get("toy.plain"))
        validate_record(record)
        broken = dict(record)
        del broken["metrics"]
        with pytest.raises(ValueError, match="metrics"):
            validate_record(broken)
        wrong = dict(record, schema="repro.bench/v0")
        with pytest.raises(ValueError, match="schema"):
            validate_record(wrong)

    def test_history_roundtrip_and_latest(self, tmp_path):
        registry = toy_registry()
        path = str(tmp_path / "hist.jsonl")
        assert read_history(path) == []  # missing file = empty trajectory
        first = run_benchmark(registry.get("toy.plain"))
        second = copy.deepcopy(first)
        second["metrics"]["answer"]["median"] = 43.0
        assert append_history(path, [first]) == 1
        assert append_history(path, [second]) == 1
        entries = read_history(path)
        assert len(entries) == 2
        compact = history_record(first)
        assert compact["metrics"] == {"answer": 42.0}
        assert compact["name"] == "toy.plain"
        latest = latest_by_name(entries)
        assert latest["toy.plain"]["metrics"]["answer"] == 43.0  # last wins
        # Scale filter.
        assert latest_by_name(entries, quick=True) == {}

    def test_history_malformed_line_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x"}\nnot-json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_history(str(path))


class TestBuiltinSuites:
    def test_expected_benchmarks_registered(self):
        registry = load_suites()
        expected = {
            "chain_index.churn",
            "chaos_soak.soak",
            "chaos_soak.backoff_ab",
            "parallel_sweep.grid",
            "figure2.spread",
            "figure3.oracle_grid",
            "figure4.greedy_vs_hybrid",
        }
        assert expected <= set(registry.names())

    def test_every_builtin_declares_gated_metrics(self):
        for bench in load_suites():
            assert bench.metrics, f"{bench.name} declares no metrics"
            assert bench.description, f"{bench.name} has no description"
            assert any(
                spec.deterministic for spec in bench.metrics.values()
            ) or "seconds" in bench.metrics, (
                f"{bench.name} gates nothing deterministic and has no "
                f"timing metric"
            )
