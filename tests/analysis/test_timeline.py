"""Timeline rendering and overlap measurement."""

import pytest

from repro.analysis import (
    cluster_activity,
    instruction_gantt,
    overlap_factor,
    render_report_timeline,
)
from repro.isa import assemble
from repro.machine import MachineConfig, SnapMachine
from repro.machine.report import InstructionTrace
from repro.obs import Tracer


PROGRAM = """
SEARCH-NODE w:we m1
SEARCH-NODE w:saw m2
PROPAGATE m1 m3 chain(is-a) identity
PROPAGATE m2 m4 chain(is-a) identity
COLLECT-NODE m3
"""


@pytest.fixture
def traced_run(fig5_kb):
    """A real traced run on a 4-cluster machine: (report, tracer)."""
    tracer = Tracer()
    machine = SnapMachine(fig5_kb, MachineConfig(4, 2))
    report = machine.run(assemble(PROGRAM), tracer=tracer)
    return report, tracer


def trace(index, opcode, issue, complete):
    return InstructionTrace(
        index=index, opcode=opcode, category="propagate",
        issue_time=issue, complete_time=complete,
    )


class TestGantt:
    def test_bars_cover_span(self):
        traces = [trace(0, "PROPAGATE", 0.0, 50.0),
                  trace(1, "PROPAGATE", 10.0, 60.0)]
        text = instruction_gantt(traces, width=20)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "#" in lines[1] and "#" in lines[2]
        # Second bar starts later than the first.
        assert lines[2].index("#") > lines[1].index("#")

    def test_empty(self):
        assert instruction_gantt([]) == "(no instructions)"

    def test_row_cap(self):
        traces = [trace(i, "X", i, i + 1) for i in range(50)]
        text = instruction_gantt(traces, max_rows=10)
        assert "more instructions" in text


class TestClusterActivity:
    def test_rows_per_source(self, traced_run):
        report, tracer = traced_run
        text = cluster_activity(tracer, report.total_time_us, width=32)
        busy = [
            cid for cid, summary in enumerate(report.cluster_busy)
            if summary["mu_busy"] > 0
        ]
        assert busy
        rows = {
            line.split("|")[0].strip(): line.split("|")[1]
            for line in text.splitlines()
        }
        for cid in busy:
            assert "#" in rows[f"c{cid:02d}"]

    def test_controller_row(self, traced_run):
        report, tracer = traced_run
        text = cluster_activity(tracer, report.total_time_us)
        assert " ctl |" in text

    def test_empty(self):
        assert "no monitoring" in cluster_activity(Tracer(), 10.0)


class TestOverlapFactor:
    def test_sequential_is_one(self):
        traces = [trace(0, "A", 0.0, 10.0), trace(1, "B", 10.0, 20.0)]
        assert overlap_factor(traces) == pytest.approx(1.0)

    def test_fully_overlapped_is_two(self):
        traces = [trace(0, "A", 0.0, 10.0), trace(1, "B", 0.0, 10.0)]
        assert overlap_factor(traces) == pytest.approx(2.0)

    def test_empty(self):
        assert overlap_factor([]) == 0.0


class TestEndToEnd:
    def test_render_real_report(self, traced_run):
        report, _ = traced_run
        text = render_report_timeline(report)
        assert "Gantt" in text
        assert "PROPAGATE" in text
        assert "cluster activity" not in text
        assert "mean in-flight" in text
        # The two independent propagates overlap in real runs.
        assert overlap_factor(report.traces) > 1.0
