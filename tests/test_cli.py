"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestBuild:
    def test_build_converges_and_exits_zero(self, capsys):
        code = main(
            [
                "build",
                "--workload",
                "Rand",
                "--size",
                "30",
                "--seed",
                "1",
                "--max-rounds",
                "2000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out and "True" in out

    def test_build_render_and_deliver(self, capsys):
        code = main(
            [
                "build",
                "--workload",
                "Rand",
                "--size",
                "20",
                "--seed",
                "2",
                "--render",
                "--deliver",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delay=" in out
        assert "delivery check" in out

    @pytest.mark.parametrize("command", ["build", "sweep"])
    def test_an_invalid_run_is_a_usage_error(self, command, capsys):
        """A flag combination no run satisfies prints ``error: ...`` and
        exits 2, like serve-soak and latency, instead of a traceback."""
        flags = ["--paths", "2", "--time-model", "continuous:geo-3region"]
        assert main([command, "--size", "30"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the continuous time model is single-overlay; "
            "--paths > 1 runs on the rounds clock\n"
        )
        assert captured.out == ""

    def test_build_failure_exit_code(self, capsys):
        code = main(
            [
                "build",
                "--workload",
                "Adversarial",
                "--algorithm",
                "greedy",
                "--max-rounds",
                "100",
            ]
        )
        assert code == 1


class TestSweep:
    ARGS = [
        "sweep",
        "--families",
        "Rand",
        "--oracles",
        "random",
        "--size",
        "25",
        "--repeats",
        "2",
        "--max-rounds",
        "1500",
    ]

    def test_sweep_serial_and_parallel_print_identical_grids(self, capsys):
        assert main(self.ARGS) == 0
        serial_out = capsys.readouterr().out
        assert main(self.ARGS + ["--workers", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert "(serial, 1 worker)" in serial_out
        assert "(process-pool, 2 workers)" in pooled_out
        # Everything below the executor banner — the grid — is identical.
        assert serial_out.splitlines()[1:] == pooled_out.splitlines()[1:]

    def test_sweep_obs_and_traces(self, tmp_path, capsys):
        code = main(
            self.ARGS + ["--obs", "--trace-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"wrote 2 per-seed traces to {tmp_path}" in out
        assert "sweep.merged_runs" in out
        assert len(list(tmp_path.glob("*.jsonl"))) == 2

    def test_sweep_with_fault_plan(self, capsys):
        code = main(
            [
                "sweep",
                "--families",
                "Rand",
                "--oracles",
                "random-delay",
                "--size",
                "20",
                "--repeats",
                "2",
                "--max-rounds",
                "150",
                "--faults",
                "crash@30:0.2:rejoin=10",
            ]
        )
        assert code == 0

    def test_sweep_family_shorthands(self, capsys):
        from repro.cli import _parse_sweep_families, _parse_sweep_oracles
        from repro.oracles.base import oracle_names
        from repro.workloads import PAPER_FAMILIES

        assert _parse_sweep_families("paper") == list(PAPER_FAMILIES)
        assert _parse_sweep_families("Rand, BiCorr") == ["Rand", "BiCorr"]
        assert _parse_sweep_oracles("all") == list(oracle_names())


class TestWorkload:
    def test_workload_description(self, capsys):
        code = main(["workload", "--workload", "Tf1", "--size", "39"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sufficiency condition holds: True" in out
        assert "latency l" in out


class TestFeasibility:
    def test_feasible_population(self, capsys):
        code = main(
            ["feasibility", "--source-fanout", "1", "1_1^1 2_1^2 3_2^5 4_1^4 5_0^4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible" in out
        assert "depth" in out

    def test_infeasible_population(self, capsys):
        code = main(
            ["feasibility", "--source-fanout", "1", "1_1^1 2_1^2 3_2^4 4_1^3 5_0^3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "NO feasible configuration" in out


class TestSaveLoadDot:
    def test_workload_save_then_build_from_file(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        assert main(
            ["workload", "--workload", "Rand", "--size", "20", "--save", str(path)]
        ) == 0
        assert path.exists()
        code = main(
            ["build", "--workload-file", str(path), "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Rand(n=20" in out

    def test_build_writes_dot(self, tmp_path, capsys):
        dot_path = tmp_path / "overlay.dot"
        code = main(
            [
                "build",
                "--workload",
                "Rand",
                "--size",
                "15",
                "--seed",
                "2",
                "--dot",
                str(dot_path),
            ]
        )
        assert code == 0
        content = dot_path.read_text()
        assert content.startswith("digraph")
        assert "->" in content


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_bench_is_not_a_command(self, capsys):
        """The benchmark is ``bench/run.py``; the CLI has no ``bench``."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "run", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["build", "--workload", "Zipf"])

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])
