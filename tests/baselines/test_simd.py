"""CM-2-style SIMD baseline."""

import pytest

from repro.baselines import SimdMachine, SimdTiming
from repro.core import FunctionalEngine
from repro.isa import assemble
from repro.network import generate_hierarchy_kb


class TestSimdSemantics:
    def test_results_match_functional_engine(self, fig5_kb):
        import copy

        program = assemble("""
        SEARCH-NODE w:we m1 0.0
        PROPAGATE m1 m2 chain(is-a) add-weight
        COLLECT-NODE m2
        """)
        simd = SimdMachine(copy.deepcopy(fig5_kb))
        golden = FunctionalEngine(copy.deepcopy(fig5_kb), 1)
        assert simd.run(program).results() == [
            r.result for r in golden.run(program).records
            if r.result is not None
        ]

    def test_steps_equal_propagation_depth(self, chain_kb):
        """Level-synchronous execution: one controller round-trip per
        BFS level; the chain has 5 levels."""
        simd = SimdMachine(chain_kb)
        report = simd.run(assemble(
            "SEARCH-NODE a0 m1 0.0\nPROPAGATE m1 m2 chain(r) add-weight"
        ))
        propagate = report.traces[1]
        assert propagate.steps == 5

    def test_time_dominated_by_roundtrips(self, chain_kb):
        timing = SimdTiming(t_step_roundtrip=1000.0, t_step_per_slot=0.0,
                            t_instruction=1.0)
        simd = SimdMachine(chain_kb, timing)
        report = simd.run(assemble(
            "SEARCH-NODE a0 m1 0.0\nPROPAGATE m1 m2 chain(r) add-weight"
        ))
        propagate = report.traces[1]
        # (5 levels + seed step) x 1000 µs.
        assert propagate.time_us == pytest.approx(6000.0)

    def test_flat_in_kb_size_for_fixed_depth(self):
        """The CM-2 signature: time depends on depth, not node count."""
        program = assemble(
            "SEARCH-NODE thing m1 0.0\n"
            "PROPAGATE m1 m2 chain(inverse:is-a) add-weight"
        )
        # Same depth (complete 4-ary trees of depth 3 vs wider depth 3).
        small = SimdMachine(generate_hierarchy_kb(85)).run(program)
        # 85 = 1+4+16+64: depth 3.  341 = depth 4.
        big = SimdMachine(generate_hierarchy_kb(341)).run(program)
        ratio = big.total_time_us / small.total_time_us
        assert ratio < 2.0  # one extra level only

    def test_nonpropagate_flat_cost(self, fig5_kb):
        timing = SimdTiming(t_instruction=500.0)
        simd = SimdMachine(fig5_kb, timing)
        report = simd.run(assemble("SET-MARKER m1 1.0\nCLEAR-MARKER m1"))
        assert report.traces[0].time_us == 500.0
        assert report.traces[1].time_us == 500.0

    def test_collect_charges_per_item(self, fig5_kb):
        timing = SimdTiming(t_instruction=0.0, t_collect_item=10.0)
        simd = SimdMachine(fig5_kb, timing)
        report = simd.run(assemble("SET-MARKER m1 1.0\nCOLLECT-NODE m1"))
        collect = report.traces[1]
        assert collect.time_us == pytest.approx(
            10.0 * fig5_kb.num_nodes
        )

    def test_total_steps(self, chain_kb):
        simd = SimdMachine(chain_kb)
        report = simd.run(assemble(
            "SEARCH-NODE a0 m1 0.0\nPROPAGATE m1 m2 chain(r) add-weight"
        ))
        assert sum(t.steps for t in report.traces) == 5
