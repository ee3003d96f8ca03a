"""Serial baseline machine."""

import pytest

from repro.baselines import SerialMachine
from repro.core import FunctionalEngine
from repro.isa import assemble
from repro.machine.config import Timing


PROGRAM = """
SEARCH-NODE w:we m1 0.0
PROPAGATE m1 m2 chain(is-a) add-weight
AND-MARKER m1 m2 m3 add
CLEAR-MARKER m1
COLLECT-NODE m2
"""


class TestSerialMachine:
    def test_results_match_functional_engine(self, fig5_kb):
        import copy

        program = assemble(PROGRAM)
        serial = SerialMachine(copy.deepcopy(fig5_kb))
        serial_results = serial.run(program).results()
        golden = FunctionalEngine(copy.deepcopy(fig5_kb), 1)
        golden_results = [
            r.result for r in golden.run(program).records
            if r.result is not None
        ]
        assert serial_results == golden_results

    def test_every_instruction_timed(self, fig5_kb):
        report = SerialMachine(fig5_kb).run(assemble(PROGRAM))
        assert len(report.traces) == 5
        assert all(t.time_us > 0 for t in report.traces)
        assert report.total_time_us == pytest.approx(
            sum(t.time_us for t in report.traces)
        )

    def test_category_time_accumulates(self, fig5_kb):
        report = SerialMachine(fig5_kb).run(assemble(PROGRAM))
        assert set(report.category_busy_us) == {
            "search", "propagate", "boolean", "setclear", "collect"
        }
        shares = report.category_time_share()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_frequency_share(self, fig5_kb):
        report = SerialMachine(fig5_kb).run(assemble(PROGRAM))
        counts = report.category_counts()
        assert counts["propagate"] / sum(counts.values()) == pytest.approx(0.2)

    def test_set_clear_near_paper_anchor(self):
        """Calibration: SET/CLEAR around 50 µs (paper §IV) on a
        1K-node-per-PE workload."""
        from repro.network import generate_kb, GeneratorSpec

        net = generate_kb(GeneratorSpec(total_nodes=1000))
        report = SerialMachine(net).run(assemble("SET-MARKER m1 1.0\n"
                                                 "CLEAR-MARKER b1"))
        set_time = report.traces[0].time_us
        clear_time = report.traces[1].time_us
        assert 15.0 <= clear_time <= 120.0
        assert 15.0 <= set_time <= 150.0

    def test_propagate_costs_more_than_setclear(self, fig5_kb):
        report = SerialMachine(fig5_kb).run(assemble(PROGRAM))
        by_opcode = {t.opcode: t.time_us for t in report.traces}
        assert by_opcode["PROPAGATE"] > by_opcode["CLEAR-MARKER"]

    def test_arrivals_recorded(self, fig5_kb):
        report = SerialMachine(fig5_kb).run(assemble(PROGRAM))
        propagate = next(t for t in report.traces if t.opcode == "PROPAGATE")
        assert propagate.arrivals > 0

    def test_custom_timing(self, fig5_kb):
        slow = Timing(t_decode=1000.0)
        fast_report = SerialMachine(fig5_kb).run(assemble(PROGRAM))
        import copy

        slow_report = SerialMachine(
            copy.deepcopy(fig5_kb), timing=slow
        ).run(assemble(PROGRAM))
        assert slow_report.total_time_us > fast_report.total_time_us
