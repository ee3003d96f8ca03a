"""Functional engine: end-to-end programs and the Fig. 5 example."""

import dataclasses

import pytest

from repro.core import ExecutionError, FunctionalEngine, run_program
from repro.core.state import MachineState
from repro.core.tables import MACHINE_NODE_CAPACITY, TableError
from repro.isa import SetMarker, assemble
from repro.network import Color, SemanticNetwork
from repro.network.generator import generate_hierarchy_kb

FIG5_PROGRAM = """
SEARCH-NODE w:we m1 0.0
PROPAGATE m1 m4 spread(is-a,last) add-weight
COLLECT-NODE m4
"""


class TestFig5:
    def test_spread_reaches_classes(self, fig5_kb):
        result = run_program(fig5_kb, assemble(FIG5_PROGRAM))
        reached = {name for _gid, name in result.records[-1].result}
        assert reached == {"animate", "thing", "noun-phrase"}

    def test_spread_switches_to_last(self, fig5_kb):
        # From an element, spread(next,last) walks the sequence then
        # jumps to the root via last.
        program = assemble("""
        SEARCH-NODE seeing-event.experiencer m1
        PROPAGATE m1 m2 spread(next,last) identity
        COLLECT-NODE m2
        """)
        result = run_program(fig5_kb, program)
        reached = {name for _gid, name in result.records[-1].result}
        assert reached == {
            "seeing-event.see", "seeing-event.object", "seeing-event"
        }

    def test_full_fig5_parse_fragment(self, fig5_kb):
        """The L1-L7 structure: two propagations + AND + collect."""
        program = assemble("""
        SEARCH-NODE w:we m1 0.0
        SEARCH-NODE w:saw m2 0.0
        PROPAGATE m1 m3 chain(is-a) add-weight
        PROPAGATE m2 m4 chain(is-a) add-weight
        OR-MARKER m3 m4 m5 add
        COLLECT-NODE m5
        """)
        result = run_program(fig5_kb, program)
        reached = {name for _gid, name in result.records[-1].result}
        assert "thing" in reached
        assert "verb-phrase" in reached


class TestRunResult:
    def test_category_counts(self, fig5_kb):
        result = run_program(fig5_kb, assemble(FIG5_PROGRAM))
        counts = result.category_counts()
        assert counts == {"search": 1, "propagate": 1, "collect": 1}

    def test_total_work_positive(self, fig5_kb):
        result = run_program(fig5_kb, assemble(FIG5_PROGRAM))
        assert sum(r.work.total() for r in result.records) > 0

    def test_collects_listed_in_order(self, fig5_kb):
        program = assemble("""
        SEARCH-NODE w:we m1
        COLLECT-NODE m1
        SEARCH-NODE w:saw m2
        COLLECT-NODE m2
        """)
        result = run_program(fig5_kb, program)
        collects = result.collects
        assert len(collects) == 2
        assert collects[0].result[0][1] == "w:we"
        assert collects[1].result[0][1] == "w:saw"

    def test_unsupported_instruction_raises(self, fig5_kb):
        from repro.core.state import ExecutionError
        from repro.isa.instructions import Instruction

        class Bogus(Instruction):
            opcode = "BOGUS"
            category = "maintenance"

        engine = FunctionalEngine(fig5_kb)
        with pytest.raises(ExecutionError):
            engine.execute(Bogus())


class TestStatePersistence:
    def test_markers_persist_across_programs(self, fig5_kb):
        engine = FunctionalEngine(fig5_kb)
        engine.run(assemble("SEARCH-NODE w:we m1"))
        result = engine.run(assemble("COLLECT-NODE m1"))
        assert result.records[-1].result[0][1] == "w:we"


# ----------------------------------------------------------------------
# Machine capacity override
# ----------------------------------------------------------------------
def test_machine_capacity_override():
    """machine_capacity replaces the prototype's 32K node budget, so
    benchmark KBs larger than the physical machine can be built."""
    network = generate_hierarchy_kb(120, branching=3)
    with pytest.raises(TableError):
        MachineState(network, 4, machine_capacity=50)
    state = MachineState(network, 4, machine_capacity=network.num_nodes)
    assert sum(t.num_nodes for t in state.clusters) == network.num_nodes
    # Default still enforces the prototype budget.
    assert MACHINE_NODE_CAPACITY == 32768
    assert MachineState(network, 4).clusters  # well under 32K: fine


# ----------------------------------------------------------------------
# Dispatch table
# ----------------------------------------------------------------------
def _engine(nodes=30):
    return FunctionalEngine(generate_hierarchy_kb(nodes, branching=3), 4)


def test_dispatch_subclass_fallback():
    """An instruction subclass not in the table dispatches via its MRO
    (and is memoized), instead of falling through to 'unsupported'."""

    @dataclasses.dataclass(frozen=True)
    class TracingSetMarker(SetMarker):
        pass

    engine = _engine()
    record = engine.execute(TracingSetMarker(64, 1.0))
    assert record.opcode == "SET-MARKER"
    assert engine.state.marker_set_nodes(64)


def test_dispatch_unknown_instruction():
    class NotAnInstruction:
        opcode = "BOGUS"

    with pytest.raises(ExecutionError):
        _engine().execute(NotAnInstruction())


# ----------------------------------------------------------------------
# Deterministic collect ordering (cross-policy regression)
# ----------------------------------------------------------------------
def test_collect_order_identical_across_policies():
    """COLLECT results must not depend on the partition policy.

    COLLECT-RELATION emits several tuples with the same leading global
    id (one per link of a marked node); a sort keyed only on that id
    would leave their relative order at the mercy of cluster visit
    order.  The full-tuple sort pins it."""
    def build():
        net = SemanticNetwork()
        for i in range(12):
            net.add_node(f"n{i}")
        for dest in (5, 3, 9, 1, 7):  # several r1 links out of n0
            net.add_link(0, "r1", dest, 0.25 * dest)
        for i in range(1, 11):
            net.add_link(i, "r1", i + 1, 1.0)
        return net

    program = assemble("""
    SEARCH-NODE n0 b0
    PROPAGATE b0 b1 chain(r1)
    OR-MARKER b0 b1 b2
    COLLECT-RELATION b2 r1
    COLLECT-NODE b2
    """)
    outputs = []
    for policy in ("round-robin", "semantic", "sequential"):
        for clusters in (1, 3, 5):
            engine = FunctionalEngine(build(), clusters, policy)
            records = engine.run(program).records
            outputs.append([r.result for r in records
                            if r.result is not None])
    assert all(out == outputs[0] for out in outputs[1:])
    # The relation collect really does contain leading-id ties.
    relation_rows = outputs[0][0]
    leading = [row[0] for row in relation_rows]
    assert len(set(leading)) < len(leading)
    assert relation_rows == sorted(relation_rows)
