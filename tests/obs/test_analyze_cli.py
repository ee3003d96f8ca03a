"""End-to-end tests for `python -m repro analyze` (and the snapshot
wiring on `trace`, `bench`, and the experiments runner)."""

import json

import pytest

from repro.obs.analyze import analyze_document, main as analyze_main
from repro.obs.capture import capture


@pytest.fixture(scope="module")
def overload_document():
    return capture("overload", smoke=True)


@pytest.fixture()
def overload_trace(overload_document, tmp_path):
    path = tmp_path / "overload.json"
    path.write_text(json.dumps(overload_document))
    return path


class TestAnalyzeEngine:
    def test_buckets_sum_and_report_sections(self, overload_document):
        analysis = analyze_document(overload_document)
        assert analysis.queries  # every admitted query attributed
        for record in analysis.queries:
            assert record.bucket_sum_us() == pytest.approx(
                record.latency_us, rel=1e-9, abs=1e-6
            )
        rendered = analysis.to_markdown()
        for section in (
            "## Query latency attribution",
            "## Machine time attribution",
            "## Measured parallelism",
            "## Track utilization",
            "## Anomalies",
        ):
            assert section in rendered

    def test_report_is_deterministic(self, overload_document):
        one = analyze_document(overload_document).to_markdown()
        two = analyze_document(overload_document).to_markdown()
        assert one == two

    def test_snapshot_embeds_workload(self, overload_document):
        analysis = analyze_document(overload_document)
        assert analysis.snapshot["workload"] == "overload"
        assert analysis.snapshot["values"]  # non-empty metric view


class TestAnalyzeCli:
    def test_report_and_json_outputs(self, overload_trace, tmp_path, capsys):
        report = tmp_path / "report.md"
        record = tmp_path / "analysis.json"
        code = analyze_main(
            [str(overload_trace), "--report", str(report),
             "--json", str(record)]
        )
        assert code == 0
        assert "# Trace analysis" in report.read_text()
        data = json.loads(record.read_text())
        assert data["capture"]["workload"] == "overload"
        totals = data["query_buckets_us"]
        assert sum(totals.values()) > 0

    def test_compare_identical_recapture_passes(
        self, overload_trace, tmp_path, capsys
    ):
        golden = tmp_path / "golden.json"
        assert analyze_main(
            [str(overload_trace), "--snapshot-out", str(golden),
             "--report", str(tmp_path / "r.md")]
        ) == 0
        code = analyze_main(
            [str(overload_trace), "--compare", str(golden),
             "--report", str(tmp_path / "r2.md")]
        )
        assert code == 0
        assert "drift gate: ok" in capsys.readouterr().out

    def test_compare_injected_regression_fails(
        self, overload_trace, tmp_path, capsys
    ):
        golden = tmp_path / "golden.json"
        analyze_main(
            [str(overload_trace), "--snapshot-out", str(golden),
             "--report", str(tmp_path / "r.md")]
        )
        doctored = json.loads(golden.read_text())
        doctored["values"]["counters.host.outcome.served"] *= 2
        golden.write_text(json.dumps(doctored))
        code = analyze_main(
            [str(overload_trace), "--compare", str(golden),
             "--report", str(tmp_path / "r2.md")]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "DRIFT counters.host.outcome.served" in captured.out
        assert "drift gate: FAIL" in captured.err

    def test_snapshot_only_input(self, overload_trace, tmp_path, capsys):
        golden = tmp_path / "golden.json"
        analyze_main(
            [str(overload_trace), "--snapshot-out", str(golden),
             "--report", str(tmp_path / "r.md")]
        )
        # A snapshot compared against itself: drift-only mode, exit 0.
        assert analyze_main([str(golden), "--compare", str(golden)]) == 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert analyze_main([str(tmp_path / "nope.json")]) == 2

    def test_repro_subcommand_wiring(self, overload_trace, tmp_path):
        from repro.__main__ import main

        report = tmp_path / "report.md"
        assert main(
            ["analyze", str(overload_trace), "--report", str(report)]
        ) == 0
        assert "## Query latency attribution" in report.read_text()


class TestSnapshotWiring:
    def test_trace_metrics_out(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["trace", "propagate", "--smoke", "--out", str(out),
             "--metrics-out", str(metrics)]
        ) == 0
        document = json.loads(metrics.read_text())
        assert document["capture"]["workload"] == "propagate"
        assert "counters" in document["metrics"]

    def test_runner_snapshot(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        snapshot = tmp_path / "exp-snap.json"
        assert runner_main(["fig06", "--snapshot", str(snapshot)]) == 0
        document = json.loads(snapshot.read_text())
        assert document["workload"] == "experiments"
        assert any(k.startswith("fig06.") for k in document["values"])
