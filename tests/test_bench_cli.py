"""End-to-end tests for the ``repro bench`` CLI.

Pins the PR's acceptance criteria: ``repro bench run --quick`` executes
every registered benchmark and appends to ``BENCH_HISTORY.jsonl``;
``repro bench compare`` exits 1 on an injected synthetic regression and
0 on an identical re-run.

The full quick suite is sub-second per benchmark, but running all seven
in-process is still the slowest thing in the test tree — so this module
runs it exactly once (session fixture) and every test reads from that
run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    Benchmark,
    BenchResult,
    latest_by_name,
    load_suites,
    read_history,
)
from repro.cli import main

#: The perf-gate's committed quick baseline, beside the golden ledger.
QUICK_BASELINE = Path(__file__).resolve().parent / "golden" / "bench_quick.json"


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One full ``repro bench run --quick`` shared by the module."""
    root = tmp_path_factory.mktemp("bench_cli")
    output = root / "run.json"
    history = root / "history.jsonl"
    code = main(
        [
            "bench",
            "run",
            "--quick",
            "--output",
            str(output),
            "--history",
            str(history),
        ]
    )
    return code, output, history


class TestBenchRun:
    def test_quick_run_executes_every_registered_benchmark(self, quick_run):
        code, output, _history = quick_run
        assert code == 0
        document = json.loads(output.read_text())
        assert document["schema"] == "repro.bench/run/v1"
        ran = {record["name"] for record in document["records"]}
        assert ran == set(load_suites().names())
        for record in document["records"]:
            assert record["quick"] is True
            assert record["failures"] == []
            assert record["metrics"]

    def test_quick_run_appends_history(self, quick_run):
        _code, _output, history = quick_run
        entries = read_history(str(history))
        assert {entry["name"] for entry in entries} == set(
            load_suites().names()
        )
        latest = latest_by_name(entries, quick=True)
        for entry in latest.values():
            assert entry["schema"] == "repro.bench/history/v1"
            assert entry["metrics"]

    def test_run_by_name_and_unknown_name(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        code = main(
            [
                "bench",
                "run",
                "chain_index.churn",
                "--quick",
                "--repeats",
                "1",
                "--history",
                str(history),
            ]
        )
        assert code == 0
        entries = read_history(str(history))
        assert [e["name"] for e in entries] == ["chain_index.churn"]
        assert main(["bench", "run", "no.such.bench", "--no-history"]) == 2
        assert "no.such.bench" in capsys.readouterr().err

    def test_run_exits_one_on_a_failed_record(self, monkeypatch):
        """A benchmark's hard failure fails the run (the CI perf-gate's
        ``repro bench run --quick`` step relies on this)."""

        def failing(ctx):
            return BenchResult(metrics={"x": 1.0}, failures=("synthetic",))

        registry = load_suites()
        monkeypatch.setitem(
            registry._benchmarks, "toy.failing", Benchmark("toy.failing", failing)
        )
        code = main(["bench", "run", "toy.failing", "--quick", "--no-history"])
        assert code == 1

    def test_list_shows_all_benchmarks(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in load_suites().names():
            assert name in out


class TestBenchCompare:
    def test_identical_rerun_exits_zero(self, quick_run, capsys):
        _code, output, _history = quick_run
        code = main(["bench", "compare", str(output), str(output)])
        assert code == 0
        assert "compare: ok" in capsys.readouterr().out

    def test_history_as_baseline_exits_zero(self, quick_run):
        _code, output, history = quick_run
        assert main(["bench", "compare", str(history), str(output)]) == 0

    def test_injected_regression_exits_one(self, quick_run, tmp_path, capsys):
        _code, output, _history = quick_run
        document = json.loads(output.read_text())
        # Sabotage a deterministic metric: the chaos soak's availability.
        for record in document["records"]:
            if record["name"] == "chaos_soak.soak":
                entry = record["metrics"]["availability"]
                entry["median"] -= 0.05
                entry["values"] = [entry["median"]]
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(document))
        code = main(["bench", "compare", str(output), str(regressed)])
        assert code == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err and "availability" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["bench", "compare", str(missing), str(missing)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCommittedBaseline:
    def test_committed_quick_baseline_matches_registry(self):
        """The CI gate's committed baseline covers the whole quick suite."""
        document = json.loads(QUICK_BASELINE.read_text(encoding="utf-8"))
        assert document["schema"] == "repro.bench/run/v1"
        names = {record["name"] for record in document["records"]}
        assert names == set(load_suites().names())
        for record in document["records"]:
            assert record["quick"] is True
