"""Tests for the experiment harness and the paper's evaluation claims.

``TestFigureModules`` and ``TestAblations`` run each experiment module
at the ``BENCH``/``BENCH_GRID`` profile (the smallest scale at which
every qualitative shape holds) and assert the claim the paper, or the
ablation, makes about it: the Fig. 2-4 orderings, the §3.3.1
counter-example, the §5.3 asynchrony result, the §1 polling overload,
the §6 FeedTree contrast and the design ablations.  Full-scale numbers
come from ``python -m repro.experiments.<name>`` (EXPERIMENTS.md).
"""

import pytest

from repro.analysis.stats import MedianOfRuns
from repro.core.protocol import ProtocolConfig
from repro.experiments import ExperimentProfile, run_repeats, run_single
from repro.experiments import adversarial, asynchrony, figure2, figure3, figure4
from repro.experiments import baselines_experiment as bx
from repro.experiments.ablations import (
    EagerGreedyConstruction,
    EagerHybridConstruction,
    churn_sweep,
    maintenance_comparison,
    oracle_realization_comparison,
    timeout_sweep,
)
from repro.experiments.config import BENCH, BENCH_GRID
from repro.oracles.base import oracle_names
from repro.sim.runner import ALGORITHMS, SimulationConfig
from repro.workloads import PAPER_FAMILIES

TINY = ExperimentProfile(name="tiny", population=25, repeats=2, max_rounds=1200)


@pytest.fixture(scope="module")
def greedy_grid():
    """The Greedy Fig. 3 grid at ``BENCH_GRID``, run once for the Fig. 3
    claims and the delay-semantics ablation."""
    return figure3.run(BENCH_GRID)


class TestRunnerHelpers:
    def test_run_repeats_counts_runs(self):
        runs = run_repeats(
            "Rand",
            SimulationConfig(max_rounds=1200),
            population=25,
            repeats=3,
        )
        assert isinstance(runs, MedianOfRuns)
        assert runs.runs == 3
        assert runs.failures == 0

    def test_run_single_returns_result(self):
        result = run_single("Rand", SimulationConfig(max_rounds=1200), 25, seed=1)
        assert result.converged

    def test_fixed_workload_mode(self):
        fixed = run_repeats(
            "Rand",
            SimulationConfig(max_rounds=1200),
            population=25,
            repeats=2,
            vary_workload=False,
        )
        assert fixed.runs == 2

    def test_fixed_draw_builds_workload_exactly_once(self, monkeypatch):
        import repro.par.worker as worker

        calls = []
        real_make = worker.make_workload

        def counting_make(family, size, seed):
            calls.append((family, size, seed))
            return real_make(family, size=size, seed=seed)

        monkeypatch.setattr(worker, "make_workload", counting_make)
        runs = run_repeats(
            "Rand",
            SimulationConfig(max_rounds=1200),
            population=25,
            repeats=3,
            vary_workload=False,
        )
        assert runs.runs == 3
        # One fixed draw, replayed every repeat — not re-drawn per seed.
        assert calls == [("Rand", 25, 0)]

    def test_varied_draw_builds_workload_per_seed(self, monkeypatch):
        import repro.par.worker as worker

        calls = []
        real_make = worker.make_workload

        def counting_make(family, size, seed):
            calls.append(seed)
            return real_make(family, size=size, seed=seed)

        monkeypatch.setattr(worker, "make_workload", counting_make)
        run_repeats(
            "Rand",
            SimulationConfig(max_rounds=1200),
            population=25,
            repeats=3,
            base_seed=5,
        )
        assert calls == [5, 6, 7]


class TestFigureModules:
    def test_figure2_summaries(self):
        """Fig. 2: construction latency of Greedy + O3 on a fixed draw
        varies substantially across seeds (why the paper takes the
        median of repeats)."""
        summaries = figure2.run(BENCH, repeats=12)
        assert set(summaries) == set(PAPER_FAMILIES)
        assert figure2.rows(summaries)
        for family, summary in summaries.items():
            assert summary.n == 12, f"{family}: non-converged runs"
            assert summary.maximum > summary.minimum, f"{family}: no variation"
        assert max(s.spread_ratio for s in summaries.values()) >= 2.0

    def test_figure3_grid_keys(self, greedy_grid):
        """Fig. 3 (§5.2): O3 and O1 always converge, O3 is faster in
        aggregate, and O2b starves on some family."""
        assert set(greedy_grid) == {
            (family, oracle)
            for family in PAPER_FAMILIES
            for oracle in oracle_names()
        }
        assert figure3.rows(greedy_grid)[0][0] == PAPER_FAMILIES[0]
        o3_total = o1_total = 0.0
        o2b_failures = 0
        for family in PAPER_FAMILIES:
            o3 = greedy_grid[(family, "random-delay")]
            o1 = greedy_grid[(family, "random")]
            assert o3.failures == 0, f"O3 must always converge ({family})"
            assert o1.failures == 0, f"O1 must always converge ({family})"
            o3_total += o3.median
            o1_total += o1.median
            o2b_failures += greedy_grid[(family, "random-delay-capacity")].failures
        assert o3_total < o1_total
        assert o2b_failures > 0

    def test_figure3_grid_identical_under_pool(self):
        from repro.par import ProcessPoolSweepExecutor

        serial = figure3.run(TINY, families=("Rand",), oracles=("random",))
        pooled = figure3.run(
            TINY,
            families=("Rand",),
            oracles=("random",),
            executor=ProcessPoolSweepExecutor(2),
        )
        assert serial == pooled

    def test_figure4_grid(self):
        """Fig. 4 (§5.3): on BiCorr, Hybrid is no slower than Greedy
        (within noise when static, strictly under churn), and churn
        costs both algorithms rounds."""
        grid = figure4.run(BENCH)
        assert set(grid) == {
            ("greedy", "static"),
            ("greedy", "churn"),
            ("hybrid", "static"),
            ("hybrid", "churn"),
        }
        assert len(figure4.rows(grid)) == 2
        for key, runs in grid.items():
            assert runs.median is not None, f"{key} got stuck"
        greedy_static = grid[("greedy", "static")].median
        hybrid_static = grid[("hybrid", "static")].median
        greedy_churn = grid[("greedy", "churn")].median
        hybrid_churn = grid[("hybrid", "churn")].median
        assert hybrid_static <= greedy_static * 1.25
        assert hybrid_churn <= greedy_churn
        assert greedy_churn > greedy_static
        assert hybrid_churn > hybrid_static

    def test_asynchrony_slows_but_converges(self):
        """§5.3: interactions lasting 1-4 rounds slow construction for
        both algorithms but never prevent convergence."""
        grid = asynchrony.run(BENCH)
        assert len(asynchrony.rows(grid)) == len(asynchrony.ALGORITHMS)
        for algorithm in asynchrony.ALGORITHMS:
            sync = grid[(algorithm, "sync")]
            asyn = grid[(algorithm, "async 1-4")]
            assert sync.failures == 0 and asyn.failures == 0, algorithm
            assert asyn.median > sync.median, algorithm

    def test_adversarial_outcome(self):
        """§3.3.1: sufficiency fails yet a feasible configuration exists;
        Greedy never converges, Hybrid often does, and quickly."""
        seeds = 16
        outcome = adversarial.run(seeds=seeds, max_rounds=1500)
        assert outcome.feasible and not outcome.sufficiency
        assert outcome.greedy_converged == 0
        assert outcome.hybrid_converged >= seeds // 4
        assert all(rounds < 200 for rounds in outcome.hybrid_rounds)

    def test_polling_sweep_rows(self):
        """§1: direct-polling load grows linearly with the population
        until the source overloads; a LagOver's source load stays at the
        source fanout."""
        rows = bx.polling_sweep(populations=(30, 120, 360))
        assert [row[0] for row in rows] == [30, 120, 360]
        loads = [row[1] for row in rows]
        rejected = [row[2] for row in rows]
        satisfied = [row[3] for row in rows]
        assert loads[1] > 2.5 * loads[0]
        assert loads[2] > 2.5 * loads[1]
        assert rejected[0] < 0.05 and satisfied[0] > 0.95
        assert rejected[-1] > 0.5 and satisfied[-1] < 0.5
        assert len({row[4] for row in rows}) == 1

    def test_feedtree_comparison_rows(self):
        """§6: the FeedTree/Scribe tree misses many latency constraints,
        ignores declared fanouts and drafts uninterested peers; LagOver
        satisfies everyone with neither."""
        feedtree, lagover = bx.feedtree_comparison(
            family="BiCorr", population=100, infrastructure_peers=80
        )
        assert feedtree[0] == "FeedTree/Scribe"
        assert lagover[0] == "LagOver (hybrid)"
        assert lagover[1] == 1.0
        assert feedtree[1] < 0.9
        assert feedtree[4] > 0 and feedtree[5] > 0
        assert lagover[4] == 0 and lagover[5] == 0


class TestAblations:
    def test_eager_variants_registered(self):
        assert ALGORITHMS["greedy-eager"] is EagerGreedyConstruction
        assert ALGORITHMS["hybrid-eager"] is EagerHybridConstruction

    def test_eager_variants_run(self):
        result = run_single(
            "Rand",
            SimulationConfig(algorithm="greedy-eager", max_rounds=1500),
            25,
            seed=2,
        )
        assert result.rounds_run > 0

    def test_maintenance_comparison_rows(self):
        """§3.2: knee-jerk detaching never beats lazy maintenance; it
        costs structural churn, rounds, or both."""
        rows = maintenance_comparison(BENCH)
        assert [row[0] for row in rows] == [
            "greedy",
            "greedy-eager",
            "hybrid",
            "hybrid-eager",
        ]
        by_variant = {row[0]: row for row in rows}
        for variant in ("greedy", "hybrid"):
            lazy = by_variant[variant]
            eager = by_variant[f"{variant}-eager"]
            assert lazy[1] is not None, f"{variant} (lazy) got stuck"
            eager_stuck = eager[1] is None
            more_churn = eager[3] > lazy[3]
            slower = (not eager_stuck) and eager[1] >= lazy[1] * 0.9
            assert eager_stuck or more_churn or slower, variant
        assert (
            by_variant["hybrid-eager"][3] > by_variant["hybrid"][3]
            or by_variant["greedy-eager"][3] > by_variant["greedy"][3]
        )

    def test_timeout_sweep_rows(self):
        """Alg. 2's unstated Timeout: convergence holds across an order
        of magnitude of values, with no cliff."""
        timeouts = (1, 2, 4, 8, 16)
        rows = timeout_sweep(BENCH, timeouts=timeouts)
        assert [row[0] for row in rows] == list(timeouts)
        for timeout, greedy_median, hybrid_median, failures in rows:
            assert failures == 0, f"timeout={timeout}: runs got stuck"
            assert greedy_median is not None and hybrid_median is not None
        for column in (1, 2):
            medians = [row[column] for row in rows]
            assert max(medians) <= 12 * min(medians)

    def test_realization_rows(self):
        """The DHT directory tracks omniscient O3 and random walkers
        realize O1 at a bounded slowdown; everything converges."""
        rows = oracle_realization_comparison(BENCH)
        assert len(rows) == 5
        assert all(row[3] == 0 for row in rows), "runs got stuck"
        by_case = {(row[0], row[1]): row for row in rows}
        omniscient_o3 = by_case[("omniscient", "random-delay")]
        omniscient_o1 = by_case[("omniscient", "random")]
        assert by_case[("dht", "random-delay")][2] <= 4 * omniscient_o3[2]
        assert by_case[("random-walk", "random")][2] <= 8 * omniscient_o1[2]

    def test_hybrid_oracle_grid(self):
        """§5.2: under Hybrid too, O3 and O1 always converge and O3 is
        faster in aggregate."""
        grid = figure3.run(BENCH_GRID, algorithm="hybrid")
        o3_total = o1_total = 0.0
        for family in PAPER_FAMILIES:
            o3 = grid[(family, "random-delay")]
            o1 = grid[(family, "random")]
            assert o3.failures == 0, f"O3 must always converge ({family})"
            assert o1.failures == 0, f"O1 must always converge ({family})"
            o3_total += o3.median
            o1_total += o1.median
        assert o3_total < o1_total

    def test_delay_semantics(self, greedy_grid):
        """Potential-delay (unrooted fragments advertise) and rooted-only
        oracle filtering both converge, within 4x of each other."""
        families = ("Tf1", "BiCorr")
        rooted = figure3.run(
            BENCH_GRID, families=families, oracles=("random-delay-rooted",)
        )
        for family in families:
            potential = greedy_grid[(family, "random-delay")]
            only_rooted = rooted[(family, "random-delay-rooted")]
            assert potential.failures == 0 and only_rooted.failures == 0, family
            low, high = sorted((potential.median, only_rooted.median))
            assert high <= 4 * low, family

    def test_churn_intensity_sweep(self):
        """§5.3's churn point: satisfaction stays high at leave 0.01 and
        degrades visibly under violent churn."""
        profile = ExperimentProfile(
            name="churn-bench", population=60, repeats=3, max_rounds=900
        )
        rows = churn_sweep(
            profile,
            leave_probabilities=(0.0025, 0.01, 0.04),
            rounds=900,
            warmup=250,
        )
        satisfied = [row[2] for row in rows]
        assert satisfied[0] > 0.85
        assert satisfied[1] > 0.7
        assert satisfied[-1] < satisfied[0] - 0.1

    def test_pull_only_latency_rule_beats_push_fanout_rule(self):
        """Alg. 2's source-child rule: with a pull-constrained source,
        the pull-only (latency) rule is no slower than the push
        (fanout) rule, and both converge."""
        medians = {}
        for pull_only in (True, False):
            runs = run_repeats(
                "BiCorr",
                SimulationConfig(
                    algorithm="hybrid",
                    max_rounds=BENCH.max_rounds,
                    protocol=ProtocolConfig(pull_only_source=pull_only),
                ),
                population=BENCH.population,
                repeats=BENCH.repeats,
            )
            assert runs.failures == 0, f"pull_only={pull_only} got stuck"
            medians[pull_only] = runs.median
        assert medians[True] <= medians[False]
