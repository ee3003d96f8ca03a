"""SNAP programs: containers, assembler, and dependency analysis.

Application programs are *"written and compiled on the host using C
language and high-level SNAP instructions"* and downloaded whole to the
controller (§II-A).  Here a :class:`SnapProgram` is the downloaded
instruction stream; a small assembler gives examples/tests a readable
source syntax; and static marker-dependency analysis computes the
inter-propagation (β) overlap structure the controller exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from .instructions import (
    AndMarker,
    Category,
    ClearMarker,
    CollectColor,
    CollectMarker,
    CollectNode,
    CollectRelation,
    Create,
    Delete,
    FuncMarker,
    Instruction,
    InstructionError,
    MarkerCreate,
    MarkerDelete,
    MarkerSetColor,
    NotMarker,
    OrMarker,
    Propagate,
    SearchColor,
    SearchNode,
    SearchRelation,
    SetColor,
    SetMarker,
    binary_marker,
    complex_marker,
)
from .rules import parse_rule


class ProgramError(ValueError):
    """Raised for malformed program source."""


@dataclass
class SnapProgram:
    """An ordered SNAP instruction stream with analysis helpers."""

    instructions: List[Instruction] = field(default_factory=list)
    name: str = "program"

    def append(self, instruction: Instruction) -> "SnapProgram":
        """Append one instruction; returns self for chaining."""
        self.instructions.append(instruction)
        return self

    def extend(self, instructions: Iterable[Instruction]) -> "SnapProgram":
        """Append many instructions; returns self for chaining."""
        self.instructions.extend(instructions)
        return self

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    # -- profiling helpers ------------------------------------------------
    def category_counts(self) -> Dict[str, int]:
        """Instruction counts per category (Fig. 6 horizontal axis)."""
        counts: Dict[str, int] = {}
        for instr in self.instructions:
            counts[instr.category] = counts.get(instr.category, 0) + 1
        return counts

    # -- dependency analysis ------------------------------------------------
    def depends(self, earlier: Instruction, later: Instruction) -> bool:
        """True if ``later`` must wait for ``earlier`` (RAW/WAW/WAR)."""
        ew, er = set(earlier.writes()), set(earlier.reads())
        lw, lr = set(later.writes()), set(later.reads())
        return bool(ew & (lr | lw)) or bool(er & lw)

    def beta_profile(self) -> List[int]:
        """Sizes of maximal runs of overlappable PROPAGATE instructions.

        β-parallelism *"exists between L4 and L5 since there are no data
        dependencies in the markers used"* (§II-C).  A run grows while
        consecutive PROPAGATEs are mutually independent; any dependent
        instruction (or a collect, which forces a barrier) ends it.
        """
        runs: List[int] = []
        current: List[Instruction] = []

        def close() -> None:
            if current:
                runs.append(len(current))
                current.clear()

        for instr in self.instructions:
            if isinstance(instr, Propagate):
                if any(
                    self.depends(prev, instr) for prev in current
                ):
                    close()
                current.append(instr)
            elif instr.category in (Category.SEARCH, Category.SETCLEAR):
                # Configuration ops only end a run if dependent.
                if any(self.depends(prev, instr) for prev in current):
                    close()
            else:
                close()
        close()
        return runs


# ----------------------------------------------------------------------
# Assembler
# ----------------------------------------------------------------------
def _parse_marker(token: str) -> int:
    """``m<k>`` = complex marker k; ``b<k>`` = binary marker k."""
    if len(token) >= 2 and token[0] in "mb":
        try:
            index = int(token[1:])
        except ValueError:
            raise ProgramError(f"bad marker token: {token!r}") from None
        return complex_marker(index) if token[0] == "m" else binary_marker(index)
    raise ProgramError(f"bad marker token: {token!r}")


def _parse_value(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ProgramError(f"bad numeric operand: {token!r}") from None


def _split_operands(text: str) -> List[str]:
    """Split on whitespace/commas, keeping rule parentheses intact."""
    out: List[str] = []
    depth = 0
    token = ""
    for ch in text:
        if ch == "(":
            depth += 1
            token += ch
        elif ch == ")":
            depth -= 1
            token += ch
        elif ch in " \t," and depth == 0:
            if token:
                out.append(token)
                token = ""
        else:
            token += ch
    if token:
        out.append(token)
    return out


def assemble_line(line: str) -> Optional[Instruction]:
    """Assemble one source line; returns None for blanks/comments."""
    code = line.split("#", 1)[0].split(";", 1)[0].strip()
    if not code:
        return None
    parts = _split_operands(code)
    opcode, ops = parts[0].upper(), parts[1:]

    def need(n: int) -> None:
        if len(ops) < n:
            raise ProgramError(
                f"{opcode} needs {n} operands, got {len(ops)}: {line!r}"
            )

    if opcode == "CREATE":
        need(4)
        return Create(ops[0], ops[1], _parse_value(ops[2]), ops[3])
    if opcode == "DELETE":
        need(3)
        return Delete(ops[0], ops[1], ops[2])
    if opcode == "SET-COLOR":
        need(2)
        return SetColor(ops[0], int(ops[1]))
    if opcode == "SEARCH-NODE":
        need(2)
        value = _parse_value(ops[2]) if len(ops) > 2 else 0.0
        return SearchNode(ops[0], _parse_marker(ops[1]), value)
    if opcode == "SEARCH-RELATION":
        need(2)
        value = _parse_value(ops[2]) if len(ops) > 2 else 0.0
        return SearchRelation(ops[0], _parse_marker(ops[1]), value)
    if opcode == "SEARCH-COLOR":
        need(2)
        value = _parse_value(ops[2]) if len(ops) > 2 else 0.0
        return SearchColor(int(ops[0]), _parse_marker(ops[1]), value)
    if opcode == "PROPAGATE":
        need(3)
        function = ops[3] if len(ops) > 3 else "identity"
        return Propagate(
            _parse_marker(ops[0]),
            _parse_marker(ops[1]),
            parse_rule(ops[2]),
            function,
        )
    if opcode == "MARKER-CREATE":
        need(3)
        reverse = ops[3] if len(ops) > 3 else None
        return MarkerCreate(_parse_marker(ops[0]), ops[1], ops[2], reverse)
    if opcode == "MARKER-DELETE":
        need(3)
        reverse = ops[3] if len(ops) > 3 else None
        return MarkerDelete(_parse_marker(ops[0]), ops[1], ops[2], reverse)
    if opcode == "MARKER-SET-COLOR":
        need(2)
        return MarkerSetColor(_parse_marker(ops[0]), int(ops[1]))
    if opcode == "AND-MARKER":
        need(3)
        function = ops[3] if len(ops) > 3 else "first"
        return AndMarker(
            _parse_marker(ops[0]),
            _parse_marker(ops[1]),
            _parse_marker(ops[2]),
            function,
        )
    if opcode == "OR-MARKER":
        need(3)
        function = ops[3] if len(ops) > 3 else "first"
        return OrMarker(
            _parse_marker(ops[0]),
            _parse_marker(ops[1]),
            _parse_marker(ops[2]),
            function,
        )
    if opcode == "NOT-MARKER":
        need(2)
        value = _parse_value(ops[2]) if len(ops) > 2 else 0.0
        cond = ops[3] if len(ops) > 3 else "always"
        return NotMarker(
            _parse_marker(ops[0]), _parse_marker(ops[1]), value, cond
        )
    if opcode == "SET-MARKER":
        need(1)
        value = _parse_value(ops[1]) if len(ops) > 1 else 0.0
        return SetMarker(_parse_marker(ops[0]), value)
    if opcode == "CLEAR-MARKER":
        need(1)
        return ClearMarker(_parse_marker(ops[0]))
    if opcode == "FUNC-MARKER":
        need(1)
        function = ops[1] if len(ops) > 1 else "identity"
        return FuncMarker(_parse_marker(ops[0]), function)
    if opcode == "COLLECT-NODE":
        need(1)
        return CollectNode(_parse_marker(ops[0]))
    if opcode == "COLLECT-MARKER":
        need(1)
        return CollectMarker(_parse_marker(ops[0]))
    if opcode == "COLLECT-RELATION":
        need(2)
        return CollectRelation(_parse_marker(ops[0]), ops[1])
    if opcode == "COLLECT-COLOR":
        need(1)
        return CollectColor(_parse_marker(ops[0]))
    raise ProgramError(f"unknown opcode: {opcode!r}")


def assemble(source: str, name: str = "program") -> SnapProgram:
    """Assemble multi-line source text into a :class:`SnapProgram`."""
    program = SnapProgram(name=name)
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            instr = assemble_line(line)
        except (ProgramError, InstructionError) as exc:
            raise ProgramError(f"line {lineno}: {exc}") from exc
        if instr is not None:
            program.append(instr)
    return program


def marker_name(marker: int) -> str:
    """Inverse of the assembler's marker syntax."""
    from .instructions import NUM_COMPLEX_MARKERS, is_complex

    if is_complex(marker):
        return f"m{marker}"
    return f"b{marker - NUM_COMPLEX_MARKERS}"


def disassemble(program: SnapProgram) -> str:
    """Render a program back to assembler syntax (round-trippable)."""
    lines: List[str] = []
    for instr in program:
        ops: List[str] = []
        if isinstance(instr, Create):
            ops = [str(instr.source), instr.relation, str(instr.weight),
                   str(instr.end)]
        elif isinstance(instr, Delete):
            ops = [str(instr.source), instr.relation, str(instr.end)]
        elif isinstance(instr, SetColor):
            ops = [str(instr.node), str(instr.color)]
        elif isinstance(instr, SearchNode):
            ops = [str(instr.node), marker_name(instr.marker),
                   str(instr.value)]
        elif isinstance(instr, SearchRelation):
            ops = [instr.relation, marker_name(instr.marker),
                   str(instr.value)]
        elif isinstance(instr, SearchColor):
            ops = [str(instr.color), marker_name(instr.marker),
                   str(instr.value)]
        elif isinstance(instr, Propagate):
            ops = [marker_name(instr.marker1), marker_name(instr.marker2),
                   str(instr.rule), str(instr.function)]
        elif isinstance(instr, (MarkerCreate, MarkerDelete)):
            ops = [marker_name(instr.marker), instr.forward, str(instr.end)]
            if instr.reverse:
                ops.append(instr.reverse)
        elif isinstance(instr, MarkerSetColor):
            ops = [marker_name(instr.marker), str(instr.color)]
        elif isinstance(instr, (AndMarker, OrMarker)):
            ops = [marker_name(instr.marker1), marker_name(instr.marker2),
                   marker_name(instr.marker3), str(instr.function)]
        elif isinstance(instr, NotMarker):
            ops = [marker_name(instr.marker1), marker_name(instr.marker2),
                   str(instr.value), instr.condition]
        elif isinstance(instr, SetMarker):
            ops = [marker_name(instr.marker), str(instr.value)]
        elif isinstance(instr, (ClearMarker, CollectNode, CollectMarker,
                                CollectColor)):
            ops = [marker_name(instr.marker)]
        elif isinstance(instr, FuncMarker):
            ops = [marker_name(instr.marker), str(instr.function)]
        elif isinstance(instr, CollectRelation):
            ops = [marker_name(instr.marker), instr.relation]
        lines.append(" ".join([instr.opcode] + ops))
    return "\n".join(lines)
