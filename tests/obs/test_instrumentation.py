"""Integration tests: instrumentation must not change simulation results.

The tracing hooks run inline with the simulator and host event loops;
these tests pin the contract that a traced run is *observationally
identical* to an untraced run — same reports, same ICN accounting,
same outcomes — and that the captured event stream itself is a valid,
non-trivial Chrome trace.
"""

import json

import pytest

from repro.isa import assemble
from repro.machine import SnapMachine
from repro.machine.config import MachineConfig
from repro.machine.faults import FaultConfig
from repro.network.generator import generate_hierarchy_kb
from repro.obs import (
    MetricsRegistry, Tracer, export_chrome_json, validate_chrome_trace,
)

PROGRAM = """
SEARCH-NODE thing b0
PROPAGATE b0 b1 chain(inverse:is-a)
COLLECT-NODE b1
"""


def _machine(faults=None):
    network = generate_hierarchy_kb(120, branching=3)
    config = MachineConfig(
        num_clusters=4, mus_per_cluster=2, faults=faults
    )
    return SnapMachine(network, config)


def _fault_config():
    return FaultConfig(
        seed=7,
        failed_cluster_fraction=0.25,
        mu_loss_prob=0.1,
        link_fail_prob=0.1,
        transfer_corrupt_prob=0.05,
    )


class TestMachineInstrumentation:
    def test_traced_run_report_identical_to_untraced(self):
        program = assemble(PROGRAM)
        baseline = _machine().run(program)
        tracer = Tracer()
        traced = _machine().run(program, tracer=tracer)
        assert json.dumps(baseline.to_json(), sort_keys=True) == \
            json.dumps(traced.to_json(), sort_keys=True)
        assert tracer.num_events > 0

    def test_traced_run_under_faults_identical(self):
        program = assemble(PROGRAM)
        baseline = _machine(_fault_config()).run(program)
        tracer = Tracer()
        traced = _machine(_fault_config()).run(program, tracer=tracer)
        assert json.dumps(baseline.to_json(), sort_keys=True) == \
            json.dumps(traced.to_json(), sort_keys=True)

    def test_trace_validates_and_has_expected_tracks(self):
        tracer = Tracer()
        _machine().run(assemble(PROGRAM), tracer=tracer)
        document = export_chrome_json(tracer)
        validate_chrome_trace(document)
        processes = {process for process, _ in tracer.tracks}
        assert "machine" in processes
        threads = {thread for _, thread in tracer.tracks}
        assert "controller" in threads
        assert any(t.startswith("cluster") for t in threads)

    def test_icn_record_message_invariant_under_tracing(self):
        # Every counted hop must be attributed to exactly one L/X/Y
        # memory; to_json() raises if tracing ever skews the
        # per-message hop and per-dimension counts.
        tracer = Tracer()
        report = _machine().run(assemble(PROGRAM), tracer=tracer)
        stats = report.icn_stats
        assert stats.messages > 0
        assert sum(stats.dimension_counts.values()) == stats.total_hops
        assert sum(stats.hop_histogram.values()) == stats.messages
        stats.to_json()  # must not raise the invariant error

    def test_machine_metrics_fed_post_run(self):
        metrics = MetricsRegistry()
        report = _machine().run(assemble(PROGRAM), metrics=metrics)
        dump = metrics.as_dict()
        assert dump["counters"]["machine.instructions"] == len(
            report.traces
        )
        assert dump["counters"]["machine.icn.messages"] == \
            report.icn_stats.messages
        hist = dump["histograms"]["machine.instruction_latency_us"]
        assert hist["total"] == len(report.traces)

    def test_trace_offset_shifts_all_events(self):
        program = assemble(PROGRAM)
        base, shifted = Tracer(), Tracer()
        _machine().run(program, tracer=base)
        _machine().run(program, tracer=shifted, trace_offset_us=1000.0)
        base_ts = [s[2] for s in base.spans]
        shifted_ts = [s[2] for s in shifted.spans]
        assert len(base_ts) == len(shifted_ts)
        for a, b in zip(base_ts, shifted_ts):
            assert b == pytest.approx(a + 1000.0)


class TestHostInstrumentation:
    def _serve(self, tracer=None, metrics=None):
        from repro.experiments.overload import build_queries
        from repro.host import HostConfig, ServingHost

        network = generate_hierarchy_kb(120, branching=3)
        config = HostConfig(
            num_replicas=2,
            clusters_per_replica=2,
            mus_per_cluster=2,
            queue_capacity=8,
        )
        queries = build_queries(30, 0.00002, 50_000.0, seed=5)
        host = ServingHost(
            network, config, tracer=tracer, metrics=metrics
        )
        return host.serve(queries)

    def test_traced_serving_report_identical(self):
        baseline = self._serve()
        tracer, metrics = Tracer(), MetricsRegistry()
        traced = self._serve(tracer=tracer, metrics=metrics)
        assert json.dumps(baseline.as_dict(), sort_keys=True) == \
            json.dumps(traced.as_dict(), sort_keys=True)
        assert tracer.num_events > 0

    def test_host_trace_validates_with_query_tracks(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        report = self._serve(tracer=tracer, metrics=metrics)
        document = export_chrome_json(tracer, metrics=metrics)
        validate_chrome_trace(document)
        processes = {process for process, _ in tracer.tracks}
        assert {"host", "queries"} <= processes
        dump = metrics.as_dict()
        assert dump["counters"]["host.queries"] == report.submitted
        assert dump["histograms"]["host.served_latency_us"]["total"] == \
            report.served
