"""Forwarded subcommands reach the owning module's one parser."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.__main__ import FORWARDED, main
from repro.experiments.runner import REGISTRY, main as runner_main
from repro.obs.capture import WORKLOADS
from repro.obs.live.cli import MONITOR_WORKLOADS
from repro.obs.validate import validate_chrome_trace

#: The paper's artifact order, then the extension studies.
PAPER_ORDER = [
    "fig06", "fig08", "table04", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig20", "fig21", "textstats", "scaling", "speech",
    "faultdeg", "overload", "chaos", "fleetchaos",
]

EXPERIMENT_FLAGS = (
    "--full", "--out", "--snapshot", "--list", "--trace",
)


def offered_choices(argv, capsys):
    """The choices argparse lists when ``argv`` names a bogus one."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    listed = re.search(r"choose from (.*)\)", capsys.readouterr().err)
    return [choice.strip("'") for choice in listed.group(1).split(", ")]


class TestForwarding:
    def test_top_level_experiments_accepts_snapshot(self, tmp_path, capsys):
        path = tmp_path / "fig06.json"
        assert main(["experiments", "fig06", "--snapshot", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["workload"] == "experiments"
        assert any(key.startswith("fig06.") for key in snapshot["values"])

    def test_runner_accepts_trace(self, tmp_path, capsys):
        path = tmp_path / "fig21.json"
        assert runner_main(["fig21", "--trace", str(path)]) == 0
        document = json.loads(path.read_text())
        validate_chrome_trace(document)
        assert document["traceEvents"]
        assert f"wrote {path}" in capsys.readouterr().out

    def test_trace_choices_are_the_capture_workloads(self, capsys):
        assert offered_choices(["trace", "bogus"], capsys) == list(WORKLOADS)

    def test_monitor_choices_are_the_monitor_table(self, capsys):
        assert offered_choices(["monitor", "bogus"], capsys) == sorted(
            MONITOR_WORKLOADS
        )

    def test_perf_profile_choices_are_the_registry(self, capsys):
        offered = offered_choices(["perf", "profile", "bogus"], capsys)
        assert sorted(offered) == sorted(REGISTRY)

    @pytest.mark.parametrize("command", sorted(FORWARDED))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"python -m repro {command}" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", [main, runner_main])
    def test_both_experiment_spellings_offer_every_flag(self, entry, capsys):
        argv = ["experiments", "--help"] if entry is main else ["--help"]
        with pytest.raises(SystemExit):
            entry(argv)
        out = capsys.readouterr().out
        for flag in EXPERIMENT_FLAGS:
            assert flag in out

    def test_list_follows_paper_order(self):
        # A fresh interpreter: the registry's insertion order is the
        # runner's import order only when nothing imported an
        # experiment module first.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "--list"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.split() == PAPER_ORDER

    def test_top_level_help_lists_forwarded_commands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for command in FORWARDED:
            assert command in out
