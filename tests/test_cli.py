"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_parse_command(self, capsys):
        code = main(["parse", "terrorists attacked the mayor",
                     "--kb-nodes", "1200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "attack-event" in out
        assert "M.B." in out

    def test_parse_failure_exit_code(self, capsys):
        code = main(["parse", "in of the", "--kb-nodes", "1200"])
        assert code == 1
        assert "no completed hypothesis" in capsys.readouterr().out

    def test_speech_command(self, capsys):
        code = main(["speech", "guerrillas bombed the embassy",
                     "--kb-nodes", "1200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lattice:" in out
        assert "meaning:" in out

    def test_info_command(self, capsys):
        code = main(["info", "--kb-nodes", "1200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "144" in out  # full prototype PE count
        assert "concept sequences" in out

    def test_experiments_command(self, capsys):
        code = main(["experiments", "fig21"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig21" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_experiment_exits_nonzero_with_usage(self, capsys):
        code = main(["experiments", "fig99"])
        captured = capsys.readouterr()
        assert code != 0
        assert "unknown experiment" in captured.err
        assert "fig99" in captured.err
        # The usage message lists the known experiment ids.
        assert "usage" in captured.err
        assert "fig16" in captured.err
        assert "overload" in captured.err
        # Nothing was run.
        assert captured.out == ""

    def test_experiments_list_includes_overload(self, capsys):
        code = main(["experiments", "--list"])
        assert code == 0
        assert "overload" in capsys.readouterr().out.split()

    def test_serve_command(self, capsys):
        code = main([
            "serve", "--queries", "20", "--load", "2.0",
            "--kb-nodes", "120",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "offered 2.0x sustainable" in out
        assert "submitted: 20" in out
        assert "served:" in out

    def test_serve_command_with_faults(self, capsys):
        code = main([
            "serve", "--queries", "12", "--fault-fraction", "0.5",
            "--replicas", "2", "--kb-nodes", "120", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "breaker_opens" in out

    def test_perf_profile_routes_through_top_level_cli(
        self, tmp_path, capsys
    ):
        folded = tmp_path / "fig21.folded"
        code = main([
            "perf", "profile", "fig21",
            "--folded-out", str(folded), "--report", str(tmp_path / "r.md"),
        ])
        assert code == 0
        assert folded.exists()

    def test_perf_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["perf", "frobnicate"])
