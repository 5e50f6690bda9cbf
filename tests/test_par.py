"""Proof-grade tests for the parallel sweep engine (:mod:`repro.par`).

The engine's one promise is that *where* a sweep item runs can never
change *what* it computes: for any item list, the process-pool backend
must return outcomes field-for-field equal to the serial reference, in
submission order, for every paper oracle, with and without fault plans,
and with observability collection on.  These tests pin that promise —
plus the failure semantics (a raising simulation marks its cell and the
sweep continues; a dying worker process is surfaced per item; an
unpicklable config fails fast before any work is submitted).
"""

import dataclasses
import json
import os

import pytest

from repro.core.errors import ConfigurationError
from repro.core.greedy import GreedyConstruction
from repro.experiments import run_repeats, run_single
from repro.faults import FaultPlan, MassCrash, SourceOutage
from repro.par import (
    FAILED_RUNS_COUNTER,
    MERGED_RUNS_COUNTER,
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepItem,
    Task,
    make_executor,
    median_of_outcomes,
    merge_outcome_counters,
    repeat_items,
)
from repro.sim.runner import (
    SimulationConfig,
    SimulationResult,
    register_algorithm,
)

POPULATION = 25
MAX_ROUNDS = 1500
PAPER_ORACLES = (
    "random",
    "random-capacity",
    "random-delay",
    "random-delay-capacity",
)

#: Every field that participates in SimulationResult equality (the
#: dataclass excludes wall-clock phase timings via ``compare=False``).
RESULT_FIELDS = [f.name for f in dataclasses.fields(SimulationResult) if f.compare]


def assert_outcomes_identical(serial, pooled):
    """Field-for-field equality, in submission order."""
    assert len(serial) == len(pooled)
    for left, right in zip(serial, pooled):
        assert left.item == right.item
        assert left.error == right.error
        if left.result is None:
            assert right.result is None
            continue
        for name in RESULT_FIELDS:
            assert getattr(left.result, name) == getattr(right.result, name), (
                f"{name} diverged for {left.item.describe()}"
            )


class ExplodingConstruction(GreedyConstruction):
    """Raises mid-simulation on the poisoned population size (13)."""

    name = "exploding"

    def step(self, node):
        if len(self.overlay.consumers) == 13:
            raise RuntimeError("injected mid-simulation fault")
        return super().step(node)


class DyingConstruction(GreedyConstruction):
    """Kills the whole worker process — a crash, not an exception."""

    name = "dying"

    def step(self, node):
        os._exit(3)


register_algorithm(ExplodingConstruction)
register_algorithm(DyingConstruction)


class TestSerialEquivalence:
    """The determinism contract, pinned run-for-run."""

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("algorithm", ["greedy", "hybrid"])
    def test_paper_oracles_bit_identical(self, workers, algorithm):
        items = []
        for oracle in PAPER_ORACLES:
            items.extend(
                repeat_items(
                    "Rand",
                    SimulationConfig(
                        algorithm=algorithm,
                        oracle=oracle,
                        max_rounds=MAX_ROUNDS,
                    ),
                    POPULATION,
                    repeats=2,
                )
            )
        serial = SerialExecutor().run(items)
        pooled = ProcessPoolSweepExecutor(workers).run(items)
        assert_outcomes_identical(serial, pooled)
        for start in range(0, len(items), 2):
            cell_serial = median_of_outcomes(serial[start : start + 2])
            cell_pooled = median_of_outcomes(pooled[start : start + 2])
            assert cell_serial == cell_pooled

    def test_run_repeats_equal_through_executor_param(self):
        config = SimulationConfig(algorithm="hybrid", max_rounds=MAX_ROUNDS)
        serial = run_repeats("BiCorr", config, POPULATION, repeats=3)
        pooled = run_repeats(
            "BiCorr",
            config,
            POPULATION,
            repeats=3,
            executor=ProcessPoolSweepExecutor(2),
        )
        # MedianOfRuns is a frozen dataclass: == is per-run equality.
        assert serial == pooled

    def test_fixed_workload_sweep_equal(self):
        config = SimulationConfig(max_rounds=MAX_ROUNDS)
        items = repeat_items(
            "Rand", config, POPULATION, repeats=3, vary_workload=False
        )
        assert_outcomes_identical(
            SerialExecutor().run(items), ProcessPoolSweepExecutor(2).run(items)
        )

    def test_faulted_sweep_bit_identical(self):
        plan = FaultPlan.of(
            MassCrash(round=30, fraction=0.2, rejoin_after=10),
            SourceOutage(round=60, duration=5),
        )
        config = SimulationConfig(
            algorithm="hybrid",
            faults=plan,
            max_rounds=120,
            stop_at_convergence=False,
        )
        items = repeat_items("Rand", config, POPULATION, repeats=3)
        serial = SerialExecutor().run(items)
        pooled = ProcessPoolSweepExecutor(2).run(items)
        assert_outcomes_identical(serial, pooled)
        assert all(outcome.result.fault_events > 0 for outcome in serial)

    def test_outcomes_in_submission_order(self):
        items = repeat_items(
            "Rand", SimulationConfig(max_rounds=MAX_ROUNDS), POPULATION, 4
        )
        pooled = ProcessPoolSweepExecutor(4).run(items)
        assert [outcome.item for outcome in pooled] == items

    def test_run_single_through_pool(self):
        config = SimulationConfig(max_rounds=MAX_ROUNDS)
        serial = run_single("Rand", config, POPULATION, seed=3)
        pooled = run_single(
            "Rand", config, POPULATION, seed=3,
            executor=ProcessPoolSweepExecutor(2),
        )
        for name in RESULT_FIELDS:
            assert getattr(serial, name) == getattr(pooled, name)


class TestSpecRecipe:
    """An item carries its spec's population recipe: swept or run
    directly, ``Rand``'s budget arguments build the same workload."""

    SPEC = "size=40;source-fanout=6;max-latency=30;rounds=400"

    def test_a_swept_spec_builds_the_workload_spec_run_builds(self):
        from repro.par import execute_item
        from repro.spec import RunSpec, run

        spec = RunSpec.parse(self.SPEC)
        direct = run(spec, 3)
        item = SweepItem("Rand", spec.config(3), 40, 3, recipe=spec)
        swept = execute_item(item, memo={}).result
        assert swept.converged and direct.converged
        assert swept.construction_rounds == direct.construction_rounds
        assert swept == direct
        # Without the recipe the item is the family's default draw.
        plain = execute_item(SweepItem("Rand", spec.config(3), 40, 3), memo={})
        assert plain.result != direct

    def test_serial_and_pooled_sweeps_of_a_recipe_agree(self):
        from repro.spec import RunSpec

        spec = RunSpec.parse(self.SPEC)
        items = repeat_items("Rand", spec.config(0), 40, repeats=3, recipe=spec)
        assert all(item.recipe is spec for item in items)
        assert_outcomes_identical(
            SerialExecutor().run(items), ProcessPoolSweepExecutor(2).run(items)
        )

    def test_a_recipe_must_describe_the_item(self):
        from repro.spec import RunSpec

        spec = RunSpec.parse(self.SPEC)
        with pytest.raises(ConfigurationError):
            SweepItem("BiCorr", spec.config(0), 40, 0, recipe=spec)
        with pytest.raises(ConfigurationError):
            SweepItem("Rand", spec.config(0), 41, 0, recipe=spec)


class TestFailureSemantics:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ProcessPoolSweepExecutor(2)],
        ids=["serial", "pool"],
    )
    def test_raising_simulation_marks_cell_and_continues(self, executor):
        config = SimulationConfig(algorithm="exploding", max_rounds=MAX_ROUNDS)
        items = [
            SweepItem(family="Rand", config=config, population=12, seed=0),
            SweepItem(family="Rand", config=config, population=13, seed=1),
            SweepItem(family="Rand", config=config, population=12, seed=2),
        ]
        outcomes = executor.run(items)
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert "family=Rand" in failed.error
        assert "seed=1" in failed.error
        assert "algorithm=exploding" in failed.error
        assert "RuntimeError: injected mid-simulation fault" in failed.error
        assert failed.traceback and "injected mid-simulation fault" in (
            failed.traceback
        )
        assert failed.construction_rounds is None
        runs = median_of_outcomes(outcomes)
        assert runs.failures == 1 and runs.median is not None

    def test_dead_worker_process_surfaces_per_item(self):
        good = SimulationConfig(max_rounds=MAX_ROUNDS)
        bad = SimulationConfig(algorithm="dying", max_rounds=MAX_ROUNDS)
        items = [
            SweepItem(family="Rand", config=good, population=12, seed=0),
            SweepItem(family="Rand", config=good, population=12, seed=1),
            SweepItem(family="Rand", config=bad, population=12, seed=2),
        ]
        outcomes = ProcessPoolSweepExecutor(2).run(items)
        assert [outcome.ok for outcome in outcomes] == [True, True, False]
        died = outcomes[2]
        assert "worker process died" in died.error
        assert "family=Rand" in died.error and "seed=2" in died.error
        assert died.construction_rounds is None

    def test_unpicklable_item_fails_fast(self):
        poisoned = SimulationConfig(
            max_rounds=100, probe=lambda *args, **kwargs: None
        )
        items = [
            SweepItem(family="Rand", config=poisoned, population=10, seed=0)
        ]
        with pytest.raises(ConfigurationError) as exc:
            ProcessPoolSweepExecutor(2).run(items)
        assert "not picklable" in str(exc.value)
        assert "family=Rand" in str(exc.value)

    def test_unpicklable_task_fails_fast(self):
        with pytest.raises(ConfigurationError) as exc:
            ProcessPoolSweepExecutor(2).run_tasks(
                [Task(lambda: 1, label="poisoned")]
            )
        assert "not picklable" in str(exc.value)
        assert "poisoned" in str(exc.value)

    def test_serial_task_failure_is_captured(self):
        outcomes = SerialExecutor().run_tasks(
            [Task(_raise_value_error, label="boom"), Task(_double, (21,))]
        )
        assert [outcome.ok for outcome in outcomes] == [False, True]
        assert "ValueError: deliberate" in outcomes[0].error
        assert outcomes[1].value == 42


class TestTasks:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ProcessPoolSweepExecutor(2)],
        ids=["serial", "pool"],
    )
    def test_tasks_return_values_in_submission_order(self, executor):
        outcomes = executor.run_tasks(
            [Task(_double, (i,), label=f"t{i}") for i in range(5)]
        )
        assert [outcome.value for outcome in outcomes] == [0, 2, 4, 6, 8]
        assert [outcome.label for outcome in outcomes] == [
            "t0", "t1", "t2", "t3", "t4",
        ]


class TestObsAndTraces:
    def test_observation_never_changes_results(self):
        items = repeat_items(
            "Rand", SimulationConfig(max_rounds=MAX_ROUNDS), POPULATION, 2
        )
        plain = SerialExecutor().run(items)
        observed = SerialExecutor().run(items, collect_obs=True)
        assert_outcomes_identical(plain, observed)
        assert all(outcome.counters is None for outcome in plain)
        assert all(outcome.counters is not None for outcome in observed)

    def test_merged_registry_identical_serial_vs_pool(self):
        items = repeat_items(
            "Rand", SimulationConfig(max_rounds=MAX_ROUNDS), POPULATION, 3
        )
        serial = SerialExecutor().run(items, collect_obs=True)
        pooled = ProcessPoolSweepExecutor(2).run(items, collect_obs=True)
        left_registry = merge_outcome_counters(serial)
        right_registry = merge_outcome_counters(pooled)
        # Wall-clock histograms carry the nondeterministic tag through
        # snapshot -> merge_snapshot, so the comparable view is simply
        # equal — no name-based skipping.  Regression pin: if the tag
        # ever stops propagating, the full-equality assert fails on the
        # wall-clock buckets.
        left = left_registry.snapshot(comparable=True)
        right = right_registry.snapshot(comparable=True)
        assert left == right
        assert left["counters"][MERGED_RUNS_COUNTER] == 3
        assert "round.wall_clock_s" not in left["histograms"]
        full = left_registry.snapshot()
        assert full["histograms"]["round.wall_clock_s"]["nondeterministic"]

    def test_failed_outcomes_counted_not_merged(self):
        config = SimulationConfig(algorithm="exploding", max_rounds=MAX_ROUNDS)
        items = [
            SweepItem(family="Rand", config=config, population=12, seed=0),
            SweepItem(family="Rand", config=config, population=13, seed=1),
        ]
        outcomes = SerialExecutor().run(items, collect_obs=True)
        merged = merge_outcome_counters(outcomes).snapshot()
        assert merged["counters"][MERGED_RUNS_COUNTER] == 1
        assert merged["counters"][FAILED_RUNS_COUNTER] == 1

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
    def test_trace_dir_writes_one_trace_per_seed(self, workers, tmp_path):
        items = repeat_items(
            "Rand", SimulationConfig(max_rounds=MAX_ROUNDS), 20, 2
        )
        outcomes = make_executor(workers).run(items, trace_dir=str(tmp_path))
        assert all(outcome.ok for outcome in outcomes)
        paths = [outcome.trace_path for outcome in outcomes]
        assert all(path and os.path.exists(path) for path in paths)
        assert len(set(paths)) == 2
        header = json.loads(
            open(paths[1]).readline()  # noqa: SIM115 — one-shot read
        )
        assert header["seed"] == 1
        assert header["family"] == "Rand"


class TestMakeExecutor:
    def test_zero_none_and_one_mean_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_n_means_pool(self):
        executor = make_executor(3)
        assert isinstance(executor, ProcessPoolSweepExecutor)
        assert executor.workers == 3

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolSweepExecutor(0)


def _double(x):
    return 2 * x


def _raise_value_error():
    raise ValueError("deliberate")
