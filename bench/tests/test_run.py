"""Self-tests of the benchmark at ``--smoke`` scale (N <= 200, two cycles).

Run with ``python -m pytest bench/tests -q``; tier-1 does not collect
this directory (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path.insert(0, str(BENCH_DIR))
from layers import Tracer, layer_metrics  # noqa: E402


def bench(workload, trace, seed=0, script=BENCH_DIR / "run.py"):
    """One smoke invocation: (exit code, stdout lines, result object)."""
    child = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return child.returncode, lines, result


def digest(lines):
    return next(line.split()[1] for line in lines if line.startswith("sim_digest "))


@pytest.fixture(scope="module")
def smoke():
    """Every workload once in each trace mode at seed 0."""
    return {(w, t): bench(w, t) for w in WORKLOADS for t in (0, 1)}


def printed(lines, name):
    """The value of a ``name value unit`` diagnostic line."""
    return float(next(line.split()[1] for line in lines if line.startswith(name + " ")))


def test_benchmark_json_names():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed_with_its_unit(smoke, workload, trace):
    code, lines, result = smoke[(workload, trace)]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))  # none is null
        assert any(
            line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
            for line in lines
        ), metric["name"]
    assert not [line for line in lines if line.startswith(("FAIL", "WARN"))]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(smoke, workload):
    _, _, result = smoke[(workload, 0)]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_telescope_to_the_traced_total(smoke, workload):
    _, lines, result = smoke[(workload, 1)]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    self_times = sum(
        metrics[m["name"]]
        for m in SPEC["per_layer"]
        if m["unit"] == "s"
        and "." in m["name"]  # a layer's metric, not the whole pass's total_s
        and not m["name"].startswith("bench.")
        and not m["name"].endswith("_incl_s")
    )
    # The pass's measured seconds leave the speed sampler's handler out;
    # its span (bench.clock) is a layer of no package.
    total = printed(lines, "bench.traced_setup_s") + printed(lines, "bench.traced_run_s")
    assert self_times == pytest.approx(total, rel=0.02)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_package_call_counts_sum_to_total_calls(smoke, workload):
    _, lines, result = smoke[(workload, 1)]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    groups = printed(lines, "other.calls") + sum(
        value for name, value in metrics.items()
        if name.endswith(".calls") and name.count(".") == 1
    )
    assert groups == metrics["total_calls"] > metrics["setup_calls"] > 0


@pytest.mark.parametrize("workload", ("omni_churn_2k", "service_soak_geo"))
def test_counts_and_digest_repeat_and_the_seed_changes_them(smoke, workload):
    _, lines, result = smoke[(workload, 1)]
    _, again_lines, again = bench(workload, 1)
    exact = [
        m["name"] for m in SPEC["per_layer"]
        if m["unit"] in ("calls", "count", "events", "rounds")
    ]
    for name in exact:
        assert result["metrics"][name] == again["metrics"][name], name
    assert digest(lines) == digest(again_lines) == digest(smoke[(workload, 0)][1])
    _, other_lines, other = bench(workload, 0, seed=1)
    assert other["correct"]
    assert digest(other_lines) != digest(lines)


def copy_of_benchmark(tmp_path, edit=None):
    """``BENCHMARK.json`` and ``bench/`` alone in a directory; ``edit =
    (file, old, new)`` changes one line of the copy and links the
    simulator in beside it.  Returns the copy's ``run.py``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if edit:
        name, old, new = edit
        source = (tmp_path / "bench" / name).read_text(encoding="utf-8")
        assert old in source
        (tmp_path / "bench" / name).write_text(source.replace(old, new), encoding="utf-8")
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path / "bench" / "run.py"


def test_no_simulator_means_nonzero_exit_and_no_result(tmp_path):
    code, lines, result = bench(WORKLOADS[0], 0, script=copy_of_benchmark(tmp_path))
    assert code != 0 and result is None


@pytest.mark.parametrize("trace", (0, 1))
def test_a_run_whose_reader_raises_is_a_named_failure_not_a_traceback(tmp_path, trace):
    script = copy_of_benchmark(
        tmp_path, ("recipes.py", '"attaches": result.attaches,', '"attaches": result.gone,')
    )
    code, lines, result = bench("omni_churn_2k", trace, script=script)
    assert code == 1 and not result["correct"] and result["failed"] == result["attempted"]
    assert any(line.startswith("FAIL omni_churn_2k") and "AttributeError" in line
               for line in lines)
    assert all(m["value"] is None for name, m in result["metrics"].items()
               if name != "sim_stable")


def test_an_attach_point_that_is_gone_reads_null_and_the_run_goes_on(tmp_path):
    script = copy_of_benchmark(
        tmp_path, ("layers.py", '("oracle.sample", "oracles.sample"', '("oracle.gone", "oracles.sample"')
    )
    code, lines, result = bench("omni_churn_2k", 1, script=script)
    assert code == 0 and result["correct"]
    assert any(line.startswith("WARN") and "oracles.sample" in line for line in lines)
    assert result["metrics"]["oracles.sample_s"]["value"] is None
    assert result["metrics"]["core.step_s"]["value"] > 0


class _Engine:
    """Stands in for a refactored engine: ``oracle.sample`` is gone."""

    class _Part:
        def step(self, now):
            return now

    churn = _Part()
    oracle = object()


def test_unresolved_attach_point_reads_null_not_failure():
    tracer = Tracer()
    engine = _Engine()
    tracer.attach(engine, "oracle.sample", "oracles.sample", False)
    tracer.attach(engine, "churn.step", "sim.churn", True)
    tracer.attach(engine, "geo.one_way_ms", "locality.lookup", False)
    assert set(tracer.unresolved) == {"oracles.sample"}
    assert engine.churn.step(7) == 7 and tracer.round == 7
    sums = dict.fromkeys(
        ("oracle_hits", "oracle_misses", "attaches", "detaches", "events",
         "churn_events", "faults_injected", "items_delivered", "relaxations"), 0)
    metrics = layer_metrics(tracer.totals(), tracer.unresolved, sums)
    assert metrics["oracles.sample_s"] is None
    assert metrics["oracles.sample_us"] is None
    assert metrics["locality.lookup_calls"] == 0
    assert metrics["sim.churn_s"] >= 0
