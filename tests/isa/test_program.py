"""Programs: assembler, disassembler, dependency/β analysis."""

import pytest

from repro.isa import (
    AndMarker,
    ClearMarker,
    CollectNode,
    ProgramError,
    Propagate,
    SearchNode,
    SnapProgram,
    assemble,
    assemble_line,
    chain,
    complex_marker,
    disassemble,
    marker_name,
    spread,
)

#: The marker-propagation program of paper Fig. 5 (L1-L7).
FIG5_SOURCE = """
# configuration phase
SEARCH-NODE NP m1 0.0         ; L1
SEARCH-NODE VP m2 0.0         ; L2
SEARCH-NODE DO m2 0.0         ; L3
# propagation phase
PROPAGATE m2 m3 spread(is-a,last) add-weight    ; L4
PROPAGATE m1 m4 spread(is-a,last) add-weight    ; L5
# accumulation phase
AND-MARKER m3 m4 m5 add       ; L6
COLLECT-NODE m5               ; L7
"""


class TestAssembler:
    def test_comments_and_blanks_skipped(self):
        assert assemble_line("   # nothing here") is None
        assert assemble_line("") is None

    def test_fig5_assembles(self):
        program = assemble(FIG5_SOURCE)
        assert len(program) == 7
        assert program[0].opcode == "SEARCH-NODE"
        assert program[3].opcode == "PROPAGATE"
        assert program[6].opcode == "COLLECT-NODE"

    def test_marker_syntax(self):
        instr = assemble_line("SET-MARKER m5 1.5")
        assert instr.marker == complex_marker(5)
        instr = assemble_line("SET-MARKER b5")
        assert instr.marker == 64 + 5

    def test_rule_with_spaces_inside_parens(self):
        instr = assemble_line("PROPAGATE m0 m1 spread(is-a, last)")
        assert instr.rule.relations == ("is-a", "last")

    def test_bad_opcode(self):
        with pytest.raises(ProgramError):
            assemble_line("FROBNICATE m1")

    def test_bad_marker(self):
        with pytest.raises(ProgramError):
            assemble_line("SET-MARKER x9")

    def test_missing_operands(self):
        with pytest.raises(ProgramError):
            assemble_line("AND-MARKER m1 m2")

    def test_line_number_in_error(self):
        with pytest.raises(ProgramError, match="line 2"):
            assemble("SET-MARKER m1\nBOGUS op")

    def test_every_opcode_assembles(self):
        source = """
        CREATE a is-a 1.0 b
        DELETE a is-a b
        SET-COLOR a 3
        SEARCH-NODE a m1 0.5
        SEARCH-RELATION is-a m2
        SEARCH-COLOR 4 m3
        PROPAGATE m1 m2 chain(is-a) add-weight
        MARKER-CREATE m1 binding end binding-inverse
        MARKER-DELETE m1 binding end
        MARKER-SET-COLOR m1 7
        AND-MARKER m1 m2 m3 add
        OR-MARKER m1 m2 m3
        NOT-MARKER m1 m2 2.0 lt
        SET-MARKER m1 1.0
        CLEAR-MARKER m1
        FUNC-MARKER m1 negate
        COLLECT-NODE m1
        COLLECT-MARKER m1
        COLLECT-RELATION m1 is-a
        COLLECT-COLOR m1
        """
        program = assemble(source)
        assert len(program) == 20
        opcodes = {instr.opcode for instr in program}
        assert len(opcodes) == 20


class TestDisassembler:
    def test_roundtrip(self):
        program = assemble(FIG5_SOURCE)
        text = disassemble(program)
        again = assemble(text)
        assert list(again) == list(program)

    def test_full_isa_roundtrip(self):
        source = "\n".join([
            "CREATE a is-a 1.0 b",
            "NOT-MARKER m1 m2 2.0 lt",
            "PROPAGATE m1 m2 spread(is-a,last) add-weight",
            "MARKER-CREATE m1 binding end binding-inverse",
        ])
        program = assemble(source)
        assert list(assemble(disassemble(program))) == list(program)

    def test_marker_name(self):
        assert marker_name(0) == "m0"
        assert marker_name(64) == "b0"
        assert marker_name(127) == "b63"


class TestDependencies:
    def test_fig5_beta_overlap(self):
        """L4 and L5 are independent: the paper's β example."""
        program = assemble(FIG5_SOURCE)
        runs = program.beta_profile()
        assert max(runs) == 2  # L4 + L5 overlap

    def test_dependent_propagates_do_not_overlap(self):
        program = SnapProgram([
            Propagate(1, 2, chain("r")),
            Propagate(2, 3, chain("r")),  # reads marker 2 (RAW)
        ])
        assert program.beta_profile() == [1, 1]

    def test_waw_detected(self):
        program = SnapProgram([
            Propagate(1, 3, chain("r")),
            Propagate(2, 3, chain("r")),  # writes marker 3 (WAW)
        ])
        assert program.beta_profile() == [1, 1]

    def test_independent_run_of_four(self):
        program = SnapProgram([
            Propagate(i, 10 + i, chain("r")) for i in range(4)
        ])
        assert program.beta_profile() == [4]

    def test_collect_ends_run(self):
        program = SnapProgram([
            Propagate(0, 1, chain("r")),
            CollectNode(5),
            Propagate(2, 3, chain("r")),
        ])
        assert program.beta_profile() == [1, 1]

    def test_category_counts(self):
        program = assemble(FIG5_SOURCE)
        counts = program.category_counts()
        assert counts["search"] == 3
        assert counts["propagate"] == 2
        assert counts["boolean"] == 1
        assert counts["collect"] == 1
