"""SnapMachine end-to-end: timing, overlap, equivalence, reports."""

import pytest

from repro.core import FunctionalEngine
from repro.isa import (
    Category,
    CollectNode,
    Propagate,
    SearchColor,
    SnapProgram,
    assemble,
    chain,
    complex_marker,
)
from repro.machine import (
    MachineConfig,
    SnapMachine,
    snap1_16cluster,
    snap1_full,
    uniprocessor,
)
from repro.network import Color, generate_kb, GeneratorSpec


FIG5_PROGRAM = """
SEARCH-NODE w:we m1 0.0
SEARCH-NODE w:saw m2 0.0
PROPAGATE m1 m3 spread(is-a,last) add-weight
PROPAGATE m2 m4 chain(is-a) add-weight
AND-MARKER m3 m4 m5 min
COLLECT-NODE m3
COLLECT-MARKER m4
"""


@pytest.fixture
def small_machine(fig5_kb):
    return SnapMachine(fig5_kb, MachineConfig(num_clusters=4,
                                              mus_per_cluster=2))


class TestExecution:
    def test_program_runs_to_completion(self, small_machine):
        report = small_machine.run(assemble(FIG5_PROGRAM))
        assert report.total_time_us > 0
        assert len(report.traces) == 7

    def test_results_match_functional_engine(self, fig5_kb, small_machine):
        program = assemble(FIG5_PROGRAM)
        machine_results = small_machine.run(program).results()
        engine = FunctionalEngine(fig5_kb, num_clusters=1)
        functional_results = [
            r.result for r in engine.run(program).records
            if r.result is not None
        ]
        assert machine_results == functional_results

    def test_traces_in_program_order(self, small_machine):
        report = small_machine.run(assemble(FIG5_PROGRAM))
        assert [t.index for t in report.traces] == list(range(7))
        opcodes = [t.opcode for t in report.traces]
        assert opcodes[0] == "SEARCH-NODE"
        assert opcodes[-1] == "COLLECT-MARKER"

    def test_instruction_latencies_positive_and_ordered(self, small_machine):
        report = small_machine.run(assemble(FIG5_PROGRAM))
        for trace in report.traces:
            assert trace.complete_time > trace.issue_time >= 0

    def test_deterministic(self, fig5_kb):
        import copy

        program = assemble(FIG5_PROGRAM)
        r1 = SnapMachine(copy.deepcopy(fig5_kb),
                         MachineConfig(4, 2)).run(program)
        r2 = SnapMachine(copy.deepcopy(fig5_kb),
                         MachineConfig(4, 2)).run(program)
        assert r1.total_time_us == r2.total_time_us
        assert [t.latency for t in r1.traces] == [
            t.latency for t in r2.traces
        ]

    def test_state_persists_between_runs(self, small_machine):
        small_machine.run(assemble("SEARCH-NODE w:we m1"))
        results = small_machine.run(assemble("COLLECT-NODE m1")).results()
        assert results[-1][0][1] == "w:we"

    def test_run_accepts_instruction_list(self, small_machine):
        report = small_machine.run(
            [SearchColor(Color.LEXICAL, complex_marker(0)),
             CollectNode(complex_marker(0))]
        )
        assert len(report.results()[-1]) == 3


class TestOverlapAndBarriers:
    def test_independent_propagates_overlap(self, fig5_kb):
        """β-parallelism: L4/L5-style propagates share the pipeline."""
        machine = SnapMachine(fig5_kb, MachineConfig(4, 2))
        report = machine.run(assemble(FIG5_PROGRAM))
        p1 = next(t for t in report.traces if t.index == 2)
        p2 = next(t for t in report.traces if t.index == 3)
        assert p2.issue_time < p1.complete_time, "no overlap observed"

    def test_dependent_instruction_waits(self, fig5_kb):
        machine = SnapMachine(fig5_kb, MachineConfig(4, 2))
        report = machine.run(assemble(FIG5_PROGRAM))
        and_trace = next(t for t in report.traces if t.opcode == "AND-MARKER")
        for index in (2, 3):
            propagate = next(t for t in report.traces if t.index == index)
            assert and_trace.issue_time >= propagate.complete_time

    def test_collect_forces_full_barrier(self, fig5_kb):
        machine = SnapMachine(fig5_kb, MachineConfig(4, 2))
        report = machine.run(assemble("""
        SEARCH-NODE w:we m1
        PROPAGATE m1 m2 chain(is-a) identity
        COLLECT-NODE m9
        """))
        collect = report.traces[-1]
        propagate = report.traces[1]
        assert collect.issue_time >= propagate.complete_time


class TestReport:
    def test_category_busy_covers_all_categories_run(self, small_machine):
        report = small_machine.run(assemble(FIG5_PROGRAM))
        assert set(report.category_busy_us) >= {
            "search", "propagate", "boolean", "collect"
        }

    def test_overheads_populated(self, small_machine):
        report = small_machine.run(assemble(FIG5_PROGRAM))
        assert report.overheads.broadcast > 0
        assert report.overheads.synchronization > 0
        assert report.overheads.collection > 0

    def test_sync_points_recorded_per_propagate(self, small_machine):
        report = small_machine.run(assemble(FIG5_PROGRAM))
        assert len(report.sync_stats.points) == 2

    def test_alpha_recorded(self, small_machine):
        report = small_machine.run(assemble(FIG5_PROGRAM))
        alphas = [
            t.alpha for t in report.traces
            if t.category == Category.PROPAGATE
        ]
        assert min(alphas) == 1.0  # single-seed propagates

    def test_summary_keys(self, small_machine):
        summary = small_machine.run(assemble(FIG5_PROGRAM)).summary()
        for key in ("time_ms", "instructions", "propagates", "messages",
                    "mu_utilization", "overhead_us"):
            assert key in summary

    def test_cluster_busy_reported(self, small_machine):
        report = small_machine.run(assemble(FIG5_PROGRAM))
        assert len(report.cluster_busy) == 4
        assert all("mu_busy" in c for c in report.cluster_busy)


class TestScaling:
    def test_more_clusters_speed_up_heavy_propagation(self):
        spec = GeneratorSpec(total_nodes=600)
        program = SnapProgram([
            SearchColor(Color.LEXICAL, complex_marker(0)),
            Propagate(complex_marker(0), complex_marker(1),
                      chain("is-a"), "add-weight"),
        ])
        small = SnapMachine(generate_kb(spec), uniprocessor()).run(program)
        large = SnapMachine(
            generate_kb(spec), MachineConfig(8, 3)
        ).run(program)
        assert large.total_time_us < small.total_time_us

    def test_message_traffic_only_with_multiple_clusters(self, fig5_kb):
        import copy

        program = assemble(FIG5_PROGRAM)
        one = SnapMachine(copy.deepcopy(fig5_kb), uniprocessor()).run(program)
        many = SnapMachine(
            copy.deepcopy(fig5_kb), MachineConfig(4, 2)
        ).run(program)
        assert one.icn_stats.messages == 0
        assert many.icn_stats.messages > 0

    def test_packed_messages_mode_runs(self, fig5_kb):
        config = MachineConfig(4, 2, pack_messages=True)
        machine = SnapMachine(fig5_kb, config)
        report = machine.run(assemble(FIG5_PROGRAM))
        assert report.total_time_us > 0

    def test_config_mismatch_rejected(self, fig5_kb):
        from repro.core import MachineState
        from repro.machine import SnapSimulation

        state = MachineState(fig5_kb, num_clusters=2)
        with pytest.raises(ValueError):
            SnapSimulation(state, MachineConfig(num_clusters=4))


class TestJsonExport:
    def test_to_json_round_trips_through_json(self, small_machine):
        import json

        report = small_machine.run(assemble(FIG5_PROGRAM))
        dump = json.loads(json.dumps(report.to_json()))
        assert dump["total_time_us"] == report.total_time_us
        assert len(dump["instructions"]) == len(report.traces)
        assert dump["num_clusters"] == 4
        assert "collection" in dump["overheads_us"]
        assert dump["icn"]["messages"] == report.icn_stats.messages


class TestBudgetedRun:
    """Deadline budgets on the nested run (the serving layer's knife)."""

    def test_tiny_budget_aborts_instead_of_deadlocking(self, fig5_kb):
        machine = SnapMachine(
            fig5_kb, MachineConfig(num_clusters=4, mus_per_cluster=2)
        )
        report = machine.run(assemble(FIG5_PROGRAM), budget_us=1.0)
        assert report.aborted
        assert report.total_time_us <= 1.0

    def test_generous_budget_runs_to_completion(self, fig5_kb):
        machine = SnapMachine(
            fig5_kb, MachineConfig(num_clusters=4, mus_per_cluster=2)
        )
        unbudgeted = SnapMachine(
            fig5_kb, MachineConfig(num_clusters=4, mus_per_cluster=2)
        ).run(assemble(FIG5_PROGRAM))
        report = machine.run(
            assemble(FIG5_PROGRAM), budget_us=10 * unbudgeted.total_time_us
        )
        assert not report.aborted
        assert report.total_time_us == unbudgeted.total_time_us
        assert report.results() == unbudgeted.results()

    def test_aborted_flag_in_json(self, fig5_kb):
        machine = SnapMachine(
            fig5_kb, MachineConfig(num_clusters=4, mus_per_cluster=2)
        )
        report = machine.run(assemble(FIG5_PROGRAM), budget_us=1.0)
        assert report.to_json()["aborted"] is True

    def test_aborted_run_utilization_stays_within_capacity(self, fig5_kb):
        """Regression: busy time accrues a job's full service at start,
        so a run aborted mid-service used to count MU time that never
        elapsed — with long service times relative to the budget,
        ``mu_utilization()`` came out above 1 (12x over, for this
        timing).  The elapsed-busy-time view pins it to capacity."""
        from repro.machine.config import Timing

        timing = Timing(t_node_visit=500.0)
        for budget in (5.0, 20.0, 50.0, 100.0):
            machine = SnapMachine(
                fig5_kb,
                MachineConfig(
                    num_clusters=4, mus_per_cluster=2, timing=timing
                ),
            )
            report = machine.run(assemble(FIG5_PROGRAM), budget_us=budget)
            assert report.aborted
            assert report.mu_utilization() <= 1.0

    def test_marker_reset_clears_prior_query_state(self, fig5_kb):
        """Back-to-back runs on one machine (the serving pattern) see
        identical results once markers are wiped between queries."""
        machine = SnapMachine(
            fig5_kb, MachineConfig(num_clusters=4, mus_per_cluster=2)
        )
        first = machine.run(assemble(FIG5_PROGRAM)).results()
        machine.reset_markers()
        second = machine.run(assemble(FIG5_PROGRAM)).results()
        assert first == second
