"""``python -m repro perf profile``: experiments under the profiler."""

import json

import pytest

from repro.obs.perf.cli import main


class TestPerfProfile:
    def test_profile_emits_folded_report_and_json(self, tmp_path, capsys):
        folded = tmp_path / "fig21.folded"
        report = tmp_path / "fig21.md"
        record = tmp_path / "fig21.json"
        code = main([
            "profile", "fig21", "--hz", "797",
            "--folded-out", str(folded),
            "--report", str(report),
            "--json", str(record),
        ])
        assert code == 0
        # Folded stacks: every line is "frame;frame;... count".
        for line in folded.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert stack
        text = report.read_text()
        assert "# Wall-clock profile — fig21" in text
        assert "## Subsystem rollup" in text
        document = json.loads(record.read_text())
        assert document["kind"] == "repro-perf-profile"
        assert document["experiments"] == ["fig21"]
        assert document["full"] is False
        printed = capsys.readouterr().out
        assert str(folded) in printed

    def test_trace_join_section_present_on_des_lane(self, tmp_path):
        report = tmp_path / "p.md"
        code = main([
            "profile", "fig21", "--hz", "397",
            "--trace-join", "--report", str(report),
        ])
        assert code == 0
        text = report.read_text()
        assert "## Wall vs simulated time" in text
        assert "| PROPAGATE |" in text

    def test_report_prints_to_stdout_by_default(self, capsys):
        assert main(["profile", "fig06", "fig21"]) == 0
        out = capsys.readouterr().out
        assert "# Wall-clock profile — fig06 fig21" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "no-such-experiment"])
