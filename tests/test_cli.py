"""Tests for the command-line interface."""

import pytest

from repro import settings
from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "gcc", "MORC", "-n", "5000", "--bandwidth-mb", "400"])
        assert args.benchmark == "gcc"
        assert args.scheme == "MORC"
        assert args.instructions == 5000
        assert args.bandwidth_mb == 400.0

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gcc", "ZSTD"])

    @pytest.mark.parametrize("argv", [
        ["figure6", "-n", "0"],
        ["report", "-n", "0"],
        ["run", "gcc", "MORC", "-n", "-5"],
    ])
    def test_rejects_nonpositive_instructions(self, argv, capsys):
        """``-n 0`` used to run the full default budget, and ``-n -5``
        died with a ValueError traceback; both are usage errors."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "--instructions" in capsys.readouterr().err

    def test_every_experiment_has_subcommand(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.command == name


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MORC" in out and "figure6" in out and "gcc_8" in out

    def test_run(self, capsys):
        assert main(["run", "gcc", "MORC", "-n", "20000"]) == 0
        out = capsys.readouterr().out
        assert "ratio=" in out and "throughput=" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        assert "MORCMerged" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "DDR3" in capsys.readouterr().out

    def test_experiment_with_args(self, capsys):
        assert main(["figure15", "-b", "gcc", "-n", "15000"]) == 0
        assert "MORCMerged" in capsys.readouterr().out

    def test_figure8_mix_passthrough(self, capsys):
        assert main(["figure8", "-b", "S6", "-n", "1500"]) == 0
        assert "S6" in capsys.readouterr().out

    def test_skip_mode_reports_failed_cells(self, capsys):
        settings.configure(jobs=1, fault_inject="crash@1")
        try:
            assert main(["figure6", "-b", "gcc", "-n", "1500",
                         "--on-error", "skip"]) == 1
        finally:
            settings.reset()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 cell(s) failed" in captured.err
        assert "FaultInjected" in captured.err
