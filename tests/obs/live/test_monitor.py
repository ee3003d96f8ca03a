"""End-to-end monitor tests: pipeline, zero-overhead sinks, CLI."""

import json

import pytest

from repro.experiments.chaos import monitor_chaos
from repro.experiments.fleetchaos import monitor_fleetchaos
from repro.obs.analyze.drift import SNAPSHOT_KIND, compare_snapshots
from repro.obs.live.cli import main as monitor_main
from repro.obs.live.monitor import (
    events_from_trace, monitor_snapshot, run_pipeline,
)
from repro.obs.live.report import render_monitor_report


@pytest.fixture(scope="module")
def chaos_run():
    return monitor_chaos(fast=True)


@pytest.fixture(scope="module")
def fleetchaos_run():
    return monitor_fleetchaos(fast=True)


class TestChaosMonitor:
    def test_detection_gate_passes(self, chaos_run):
        assert chaos_run.gate_problems() == []
        assert chaos_run.score.recall == 1.0
        assert chaos_run.score.precision == 1.0
        assert chaos_run.score.fired_in_warmup == 0

    def test_every_injected_fault_detected(self, chaos_run):
        targets = {m.truth.target for m in chaos_run.score.matches}
        assert targets == {"replica:1", "replica:2", "replica:3"}
        assert all(m.detected for m in chaos_run.score.matches)

    def test_window_series_is_gapless(self, chaos_run):
        step = chaos_run.spec.window.width_us
        starts = [w.start_us for w in chaos_run.windows]
        assert starts == [i * step for i in range(len(starts))]

    def test_snapshot_is_flat_numeric(self, chaos_run):
        snapshot = monitor_snapshot(chaos_run)
        assert snapshot["kind"] == SNAPSHOT_KIND
        assert snapshot["workload"] == "monitor-chaos"
        values = snapshot["values"]
        assert values["score.recall"] == 1.0
        assert values["truth.count"] == 3
        assert values["alerts.total"] >= 1
        assert all(isinstance(v, float) for v in values.values())
        # Snapshot documents must round-trip as JSON for the goldens.
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_report_renders_gate_and_timeline(self, chaos_run):
        rendered = render_monitor_report(chaos_run)
        assert "## Gate: PASS" in rendered
        assert "FIRE" in rendered
        assert rendered == render_monitor_report(chaos_run)  # stable

    def test_muting_the_gray_detectors_fails_the_gate(self):
        run = monitor_chaos(
            fast=True, muted=("quarantine-page", "audit-ticket")
        )
        assert run.gate_problems()

    def test_unknown_mute_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            monitor_chaos(fast=True, muted=("no-such-rule",))


class TestFleetchaosMonitor:
    def test_detection_gate_passes(self, fleetchaos_run):
        assert fleetchaos_run.gate_problems() == []
        assert fleetchaos_run.score.recall == 1.0
        assert fleetchaos_run.score.precision == 1.0

    def test_freshness_rule_catches_the_region_outage(
        self, fleetchaos_run
    ):
        by_target = {
            m.truth.target: m for m in fleetchaos_run.score.matches
        }
        outage = by_target["region:0"]
        assert outage.first_rule == "freshness-page"
        gray = by_target["slowdown:region:2"]
        assert "quarantine-page" in gray.rules

    def test_muting_the_outage_detector_is_caught(self):
        # The CI missed-alert gate: availability stays perfect through
        # the failover, so freshness-page is the *only* timely outage
        # signal — muting it must collapse the detection score.
        run = monitor_fleetchaos(fast=True, muted=("freshness-page",))
        problems = run.gate_problems()
        assert any("region:0" in p for p in problems)


class TestZeroOverhead:
    """The acceptance pin: a sink must never change the run."""

    def test_host_report_identical_with_and_without_sink(self):
        from repro.experiments.chaos import build_scenario
        from repro.host import ServingHost
        from repro.obs.live import TelemetrySink

        network, config, queries, _ = build_scenario(fast=True)
        plain = ServingHost(network, config).serve(queries)
        sink = TelemetrySink()
        observed = ServingHost(network, config, sink=sink).serve(queries)
        assert len(sink.events) > 0
        assert json.dumps(plain.as_dict(), sort_keys=True) == json.dumps(
            observed.as_dict(), sort_keys=True
        )

    def test_fleet_report_identical_with_and_without_sink(self):
        from repro.experiments.fleetchaos import build_scenario
        from repro.fleet import FleetRouter
        from repro.obs.live import TelemetrySink

        network, config, queries, _ = build_scenario(fast=True)
        plain = FleetRouter(network, config).serve(queries)
        sink = TelemetrySink()
        observed = FleetRouter(network, config, sink=sink).serve(queries)
        assert len(sink.events) > 0
        assert json.dumps(plain.as_dict(), sort_keys=True) == json.dumps(
            observed.as_dict(), sort_keys=True
        )


class TestTraceIngestion:
    def test_events_reconstructed_from_capture(self):
        from repro.obs.capture import capture

        document = capture("chaos", smoke=True)
        events = events_from_trace(document)
        kinds = {e.kind for e in events}
        assert "arrival" in kinds
        assert "query" in kinds
        # Trace-fed runs carry no ground truth but still window cleanly.
        from repro.obs.live.monitor import chaos_spec

        horizon = max(e.ts_us for e in events)
        run = run_pipeline(
            chaos_spec(max(horizon / 22.0, 1.0)), events, truth=()
        )
        assert run.windows
        assert run.score.truth_count == 0


class TestMonitorCLI:
    def test_json_report_and_self_compare(self, tmp_path):
        golden = tmp_path / "golden.json"
        report = tmp_path / "report.md"
        assert monitor_main([
            "chaos", "--json", str(golden), "--report", str(report),
            "--check",
        ]) == 0
        document = json.loads(golden.read_text())
        assert document["kind"] == SNAPSHOT_KIND
        assert "## Gate: PASS" in report.read_text()
        # The same run drift-compared against itself is clean.
        assert monitor_main([
            "chaos", "--compare", str(golden),
        ]) == 0

    def test_check_fails_when_detector_muted(self, capsys):
        code = monitor_main([
            "fleetchaos", "--mute", "freshness-page", "--check",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "DETECTION GATE" in captured.err
        assert "region:0" in captured.err

    def test_drift_detected_against_doctored_golden(self, tmp_path):
        golden = tmp_path / "golden.json"
        assert monitor_main(["fleetchaos", "--json", str(golden)]) == 0
        document = json.loads(golden.read_text())
        document["values"]["alerts.total"] += 5
        snapshot = json.loads(golden.read_text())
        drift = compare_snapshots(snapshot, document)
        assert not drift.ok
