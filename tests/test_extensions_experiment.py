"""The §7 extension and beyond-paper tables, with the claim each makes.

Each test runs one table of :mod:`repro.experiments.extensions` at a
reduced population and asserts its qualitative shape on the outcomes
the table returns.
"""

import statistics

from repro.experiments import extensions


class TestExtensionTables:
    def test_locality_table_prints(self, capsys):
        """§7: the locality-biased O3 oracle builds markedly shorter,
        mostly intra-domain edges, which deliver fresher items."""
        pairs = extensions.locality_table(population=80, seeds=(0, 1, 2))
        out = capsys.readouterr().out
        assert "locality-delay" in out
        assert "random-delay" in out
        for plain, local in pairs:
            assert plain.converged and local.converged

        def total(field):
            """(plain, locality-biased) sums of ``field`` over the seeds."""
            return [sum(getattr(o, field) for o in side) for side in zip(*pairs)]

        plain_distance, local_distance = total("mean_edge_distance")
        plain_domain, local_domain = total("same_domain_fraction")
        plain_staleness, local_staleness = total("mean_delivered_staleness")
        assert local_distance < plain_distance / 1.5
        assert local_domain > 2 * plain_domain
        assert local_staleness < plain_staleness

    def test_multifeed_table_prints(self, capsys):
        """§7: the reuse-biased oracle serves several feeds over far
        fewer distinct partnerships, and every feed still converges."""
        outcomes = extensions.multifeed_table(consumers=60, seeds=(4, 5, 6))
        out = capsys.readouterr().out
        assert "reuse-biased" in out
        assert "independent" in out
        for label, runs in outcomes.items():
            assert all(converged for converged, _ in runs), label
        independent = [m for _, m in outcomes["independent"]]
        biased = [m for _, m in outcomes["reuse-biased"]]
        reused_independent = sum(m.reused_partnerships for m in independent)
        assert sum(m.reused_partnerships for m in biased) >= 3 * max(
            1, reused_independent
        )
        assert sum(m.mean_neighbors_per_consumer for m in biased) < sum(
            m.mean_neighbors_per_consumer for m in independent
        )

    def test_multipath_table_prints(self, capsys):
        """§7: with k LagOvers carrying k descriptions, delivery and the
        surviving descriptions rise with k at every failure level."""
        by_paths = extensions.multipath_table(population=60, seed=2)
        out = capsys.readouterr().out
        assert "surviving descriptions" in out
        for single, triple in zip(by_paths[1], by_paths[3]):
            assert triple.delivered_fraction >= single.delivered_fraction
            assert triple.mean_surviving_paths > single.mean_surviving_paths
        gain = sum(r.delivered_fraction for r in by_paths[3]) - sum(
            r.delivered_fraction for r in by_paths[1]
        )
        assert gain > 0.2

    def test_live_delivery_table_prints(self, capsys):
        """Items keep flowing while churn and repair run: everything on
        time without churn, above 90 % on time at the paper's churn
        point, degraded but not collapsed under heavier churn."""
        reports = extensions.live_delivery_table(population=60, seed=1)
        out = capsys.readouterr().out
        assert "on-time" in out
        assert "departures" in out
        static, paper, violent = reports[0.0], reports[0.01], reports[0.04]
        assert static.on_time_fraction == 1.0
        assert static.delivery_ratio > 0.95
        assert paper.on_time_fraction > 0.9
        assert paper.delivery_ratio > 0.8
        assert 0.5 < violent.delivery_ratio < paper.delivery_ratio

    def test_scalability_table(self, capsys):
        """Both algorithms converge at every population; Hybrid beats
        Greedy at the largest and stays within a small multiple of
        linear scaling."""
        grid = extensions.scalability_table()
        assert "median rounds" in capsys.readouterr().out
        for key, values in grid.items():
            assert None not in values, f"{key} got stuck"
        greedy_large = statistics.median(grid[("greedy", 480)])
        hybrid_large = statistics.median(grid[("hybrid", 480)])
        hybrid_small = statistics.median(grid[("hybrid", 60)])
        assert hybrid_large < greedy_large
        assert hybrid_large <= 2 * (480 / 60) * max(hybrid_small, 10)
