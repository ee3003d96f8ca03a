"""The memory-based parser (the SNAP application of paper §IV).

Parsing is performed *"by passing markers through a knowledge base"*:
as input phrases are read, markers are set on the corresponding
lexical nodes, propagated upward through the semantic and syntactic
layers, checked against concept-sequence constraints, and completed
sequences are collected with their accumulated costs; competing
hypotheses are then removed with cancel markers (the multiple-
hypotheses resolution phase whose growth with KB size drives Fig. 20).

The parser is architecture-independent: it drives any machine exposing
``run(program) -> report`` (the timed :class:`~repro.machine.machine.
SnapMachine`, the :class:`~repro.baselines.serial.SerialMachine`, or
the :class:`~repro.baselines.simd.SimdMachine`), which is how the
paper's machine comparisons are made on identical workloads.

Marker assignments (complex unless noted):

====== ==========================================================
m0     lexical activation (current phrase)
m1     semantic/syntactic class activation
m2     activated concept-sequence elements
m3     predicted elements
m4     confirmed elements (activation ∧ prediction, cost summed)
m5     completed concept-sequence roots (with final cost)
m6     confirmation history (all phrases)
m7     concept-sequence roots (search template)
m8     first-element prediction template
m9     roots with any confirmed element
m10    losing activated roots
m11    cancel wave over losing sequences
m12    winning root
m13    stale predictions (predicted, never confirmed)
b0     complement of winner (binary)
b1     keep mask after cancellation (binary)
b2     complement of confirmed set (binary scratch)
====== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...isa.instructions import (
    AndMarker,
    ClearMarker,
    CollectMarker,
    CollectNode,
    MarkerCreate,
    NotMarker,
    OrMarker,
    Propagate,
    SearchColor,
    SearchNode,
    binary_marker,
    complex_marker,
)
from ...isa.program import SnapProgram
from ...isa.rules import chain, comb, step
from ...network.node import Color
from .kbgen import DomainKB
from .phrasal import Phrase, PhrasalParser

# Marker register assignments (see module docstring).
M_ACT = complex_marker(0)
M_CLS = complex_marker(1)
M_ELEM = complex_marker(2)
M_PRED = complex_marker(3)
M_CONF = complex_marker(4)
M_DONE = complex_marker(5)
M_HIST = complex_marker(6)
M_ROOT = complex_marker(7)
M_FIRST = complex_marker(8)
M_CROOT = complex_marker(9)
M_LOSE = complex_marker(10)
M_CANCEL = complex_marker(11)
M_WIN = complex_marker(12)
M_STALE = complex_marker(13)
B_NOTWIN = binary_marker(0)
B_KEEP = binary_marker(1)
B_STALE = binary_marker(2)

#: Rotating activation/class marker pools: word *i* of a phrase uses
#: pool ``i % 4``, so the per-word is-a climbs are marker-disjoint and
#: the controller overlaps them — this is where the parser's
#: β-parallelism comes from (§II-C).
B_ACT_POOL = tuple(binary_marker(3 + i) for i in range(4))
M_CLS_POOL = tuple(complex_marker(16 + i) for i in range(4))

ALL_PARSE_MARKERS = (
    M_ACT, M_CLS, M_ELEM, M_PRED, M_CONF, M_DONE, M_HIST, M_ROOT,
    M_FIRST, M_CROOT, M_LOSE, M_CANCEL, M_WIN, M_STALE,
    B_NOTWIN, B_KEEP, B_STALE,
) + B_ACT_POOL + M_CLS_POOL

#: Markers that must be clean when a parse starts.  The per-phrase and
#: per-resolution programs clear their own scratch markers (activation
#: and class pools, M_ELEM/M_CONF, M_LOSE) immediately before use, so
#: the configuration phase only resets the parse-persistent state.
INIT_CLEAR_MARKERS = (
    M_PRED, M_DONE, M_HIST, M_ROOT, M_FIRST, M_CROOT, M_CANCEL,
    M_WIN, M_STALE, B_NOTWIN, B_KEEP, B_STALE,
)


@dataclass
class ParseResult:
    """Outcome and measurements of parsing one sentence."""

    sentence: str
    phrases: List[Phrase]
    #: Winning concept sequence (None when nothing completed).
    winner: Optional[str]
    cost: Optional[float]
    #: All completed hypotheses: (root name, accumulated cost).
    candidates: List[Tuple[str, float]]
    #: Confirmed-element bindings of the surviving hypothesis.
    bindings: List[str]
    pp_time_us: float
    mb_time_us: float
    instruction_count: int
    propagate_count: int
    #: Individual marker propagation events (deliveries) — the unit
    #: Fig. 20 calls "number of propagations"; grows with KB size as
    #: irrelevant candidates activate and get cancelled.
    propagation_events: int = 0
    #: Out-of-vocabulary words skipped during activation.
    oov: List[str] = field(default_factory=list)
    #: Completed auxiliary sequences (optional constituents: time-case,
    #: location-case) attached to the parse.
    auxiliaries: List[str] = field(default_factory=list)
    #: Per-category instruction counts across all program segments.
    category_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-category busy/exec time where the machine reports it (µs).
    category_time_us: Dict[str, float] = field(default_factory=dict)
    #: Raw run-report summaries per program segment.
    segment_times_us: List[float] = field(default_factory=list)
    #: Per-binding detail: (element name, accumulated cost, origin
    #: node name) — the origin is the class whose activation confirmed
    #: the element, used by template extraction to fill event roles.
    binding_details: List[Tuple[str, float, Optional[str]]] = field(
        default_factory=list
    )

    @property
    def total_time_us(self) -> float:
        """Total time across categories / components, in microseconds."""
        return self.pp_time_us + self.mb_time_us

    @property
    def num_words(self) -> int:
        """Word count."""
        return sum(len(p.words) for p in self.phrases)


class MemoryBasedParser:
    """Marker-propagation parser over a domain knowledge base."""

    def __init__(self, machine: Any, kb: DomainKB,
                 phrasal: Optional[PhrasalParser] = None,
                 keep_trace: bool = False) -> None:
        self.machine = machine
        self.kb = kb
        self.phrasal = phrasal or PhrasalParser(kb.lexicon)
        self._result_counter = 0
        #: When ``keep_trace``, every (program, report) pair is logged
        #: for α/β analysis (the §IV parallelism measurements).
        self.keep_trace = keep_trace
        self.trace_log: List[Tuple[SnapProgram, Any]] = []

    # ------------------------------------------------------------------
    def parse(self, sentence: str) -> ParseResult:
        """Parse one sentence end-to-end."""
        phrasal_result = self.phrasal.parse(sentence)
        mb_time = 0.0
        seg_times: List[float] = []
        cat_counts: Dict[str, int] = {}
        cat_time: Dict[str, float] = {}
        propagates = 0
        instructions = 0
        events = 0
        oov: List[str] = []

        def run(program: SnapProgram):
            """Run to completion; returns the result/report."""
            nonlocal mb_time, propagates, instructions, events
            report = self.machine.run(program)
            if self.keep_trace:
                self.trace_log.append((program, report))
            mb_time += report.total_time_us
            seg_times.append(report.total_time_us)
            for trace in report.traces:
                cat_counts[trace.category] = (
                    cat_counts.get(trace.category, 0) + 1
                )
                instructions += 1
                events += getattr(trace, "arrivals", 0)
                if trace.category == "propagate":
                    propagates += 1
            busy = getattr(report, "category_busy_us", None)
            if busy:
                for category, t in busy.items():
                    cat_time[category] = cat_time.get(category, 0.0) + t
            return report

        # --- configuration: clear state, seed predictions ---------------
        run(self._init_program())

        # --- one segment per contentful phrase ---------------------------
        for phrase in phrasal_result.phrases:
            # Every word sets a marker on its lexical node (§II-A);
            # function words activate their syntactic categories.
            words = [w for w in phrase.words if self.kb.has_word(w)]
            oov.extend(w for w in phrase.words if not self.kb.has_word(w))
            if not any(self.kb.has_word(w) for w in phrase.content):
                continue
            run(self._phrase_program(words))

        # --- completion: collect finished hypotheses ----------------------
        report = run(self._completion_program())
        collected = report.results()
        candidates_raw = collected[-1] if collected else []
        activated_raw = collected[-2] if len(collected) >= 2 else []
        # Auxiliary sequences (time-case, location-case) complete too,
        # but only basic concept sequences are sentence hypotheses.
        candidates = [
            (self.kb.network.node(gid).name, round(value, 4))
            for gid, value, _origin in candidates_raw
            if self.kb.network.node(gid).color == Color.CS_ROOT
        ]
        completed_aux = [
            self.kb.network.node(gid).name
            for gid, _value, _origin in candidates_raw
            if self.kb.network.node(gid).color == Color.CS_AUX
        ]
        candidates.sort(key=lambda item: item[1])
        activated_roots = [name for _gid, name in activated_raw]

        winner: Optional[str] = None
        cost: Optional[float] = None
        bindings: List[str] = []
        binding_details: List[Tuple[str, float, Optional[str]]] = []
        if candidates:
            winner, cost = candidates[0]
            losers = [name for name in activated_roots if name != winner]
            report = run(self._resolution_program(winner, losers))
            results = report.results()
            if results:
                bindings = [name for _gid, name in results[-1]]
                net = self.kb.network
                binding_details = [
                    (
                        net.node(gid).name,
                        round(value, 4),
                        net.node(origin).name if origin >= 0 else None,
                    )
                    for gid, value, origin in results[-2]
                ]

        return ParseResult(
            sentence=sentence,
            phrases=phrasal_result.phrases,
            winner=winner,
            cost=cost,
            candidates=candidates,
            bindings=bindings,
            binding_details=binding_details,
            pp_time_us=phrasal_result.pp_time_us,
            mb_time_us=mb_time,
            instruction_count=instructions,
            propagate_count=propagates,
            propagation_events=events,
            oov=oov,
            category_counts=cat_counts,
            category_time_us=cat_time,
            segment_times_us=seg_times,
            auxiliaries=completed_aux,
        )

    def parse_text(self, sentences: Sequence[str]) -> List[ParseResult]:
        """Parse a sequence of sentences (bulk text understanding)."""
        return [self.parse(s) for s in sentences]

    # ------------------------------------------------------------------
    # Program builders
    # ------------------------------------------------------------------
    def _init_program(self) -> SnapProgram:
        program = SnapProgram(name="parse-init")
        for marker in INIT_CLEAR_MARKERS:
            program.append(ClearMarker(marker))
        # Activate every concept-sequence root — basic and auxiliary
        # (optional constituents such as time-case, Fig. 1) — and push
        # the prediction template onto each sequence's first element.
        program.append(SearchColor(Color.CS_ROOT, M_ROOT, 0.0))
        program.append(SearchColor(Color.CS_AUX, M_ROOT, 0.0))
        program.append(
            Propagate(M_ROOT, M_FIRST, step("first"), "add-weight")
        )
        program.append(OrMarker(M_FIRST, M_FIRST, M_PRED, "first"))
        return program

    def _phrase_program(self, words: Sequence[str]) -> SnapProgram:
        program = SnapProgram(name="parse-phrase")
        for marker in (M_CLS, M_ELEM, M_CONF):
            program.append(ClearMarker(marker))
        # Activation climbs the is-a hierarchy word by word ("as input
        # words are read, the controller broadcasts instructions to set
        # markers on the corresponding lexical nodes", §II-A).  Each
        # word uses a rotating marker pair, so consecutive climbs are
        # data-independent and overlap in the array (β-parallelism).
        pool_size = len(B_ACT_POOL)
        for start in range(0, len(words), pool_size):
            chunk = words[start: start + pool_size]
            for i, word in enumerate(chunk):
                program.append(ClearMarker(B_ACT_POOL[i]))
                program.append(ClearMarker(M_CLS_POOL[i]))
                program.append(
                    SearchNode(f"w:{word.lower()}", B_ACT_POOL[i], 0.0)
                )
                program.append(
                    Propagate(
                        B_ACT_POOL[i], M_CLS_POOL[i], chain("is-a"),
                        "add-weight",
                    )
                )
            # Merge the chunk's activations (strengths accumulate)
            # before the pools are reused.
            for i in range(len(chunk)):
                program.append(
                    OrMarker(M_CLS_POOL[i], M_CLS, M_CLS, "add")
                )
        # Reflect activated classes onto the concept-sequence elements
        # they license.
        program.append(
            Propagate(M_CLS, M_ELEM, step("syntax-of"), "add-weight")
        )
        # Constraint check: element activated AND predicted.
        program.append(AndMarker(M_ELEM, M_PRED, M_CONF, "add"))
        program.append(OrMarker(M_CONF, M_HIST, M_HIST, "max"))
        # Stale predictions (predicted but unconfirmed) are tracked so
        # hypotheses that stop matching lose standing.
        program.append(NotMarker(M_CONF, B_STALE))
        program.append(AndMarker(M_PRED, B_STALE, M_STALE, "first"))
        # Advance predictions; completed sequences mark their root.
        program.append(ClearMarker(M_PRED))
        program.append(Propagate(M_CONF, M_PRED, step("next"), "add-weight"))
        program.append(Propagate(M_CONF, M_DONE, step("last"), "add-weight"))
        # New sequences may start at any phrase.
        program.append(OrMarker(M_PRED, M_FIRST, M_PRED, "first"))
        return program

    def _completion_program(self) -> SnapProgram:
        program = SnapProgram(name="parse-complete")
        program.append(
            Propagate(M_HIST, M_CROOT, step("element-of"), "identity")
        )
        program.append(CollectNode(M_CROOT))
        program.append(CollectMarker(M_DONE))
        return program

    def _resolution_program(
        self, winner: str, losers: Sequence[str] = ()
    ) -> SnapProgram:
        """Multiple-hypotheses resolution: cancel losing sequences.

        *"More irrelevant candidates become activated which must be
        removed by propagating cancel markers during the multiple
        hypotheses resolution phase"* (§IV) — this is that phase.  The
        cancel wave floods every element of every losing hypothesis,
        so the number of propagation events grows with the number of
        activated candidates — which grows with KB size (Fig. 20).
        """
        self._result_counter += 1
        result_node = f"result:{self._result_counter}"
        program = SnapProgram(name="parse-resolve")
        program.append(SearchNode(winner, M_WIN, 0.0))
        program.append(NotMarker(M_WIN, B_NOTWIN))
        program.append(AndMarker(M_CROOT, B_NOTWIN, M_LOSE, "first"))
        # Cancel wave: losing roots flood their sequence elements.
        program.append(
            Propagate(M_LOSE, M_CANCEL, comb("first", "next"), "identity")
        )
        program.append(NotMarker(M_CANCEL, B_KEEP))
        program.append(AndMarker(M_HIST, B_KEEP, M_HIST, "first"))
        program.append(
            MarkerCreate(M_HIST, "binding", result_node, "binding-inverse")
        )
        program.append(CollectMarker(M_HIST))
        program.append(CollectNode(M_HIST))
        return program
